package textmine

// Reference classifier: the regular-expression rules and Classify as they
// stood before the keyword scan, kept test-only so the differential tests
// (FuzzClassifyMatchesRegex, TestClassifyMatchesRegexAtWordEdges and
// TestClassifyMatchesRegexOnCorpora) can require the keyword scan to give
// the same categories and methods for every input.

import (
	"regexp"
	"strings"
)

var refCatRules = []struct {
	cat Category
	re  *regexp.Regexp
}{
	{CurrencyExchange, regexp.MustCompile(`\b(exchange|exchanging|exchanged|swap|swapping|convert|converting|cashout|cash out)\b`)},
	{Payments, regexp.MustCompile(`\b(payment|payments|paying|send|sending|transfer|transferring)\b`)},
	{Giftcard, regexp.MustCompile(`\b(giftcard|giftcards|gc|coupon|coupons|voucher|vouchers|reward card)\b`)},
	{Accounts, regexp.MustCompile(`\b(account|accounts|license|licenses|licence|alts?|subscription|serial key|activation key|netflix|spotify|nordvpn|upgrade key)\b`)},
	{Gaming, regexp.MustCompile(`\b(fortnite|minecraft|csgo|cs go|steam|roblox|league of legends|valorant|gta|vbucks|skins?|in game|ingame|game)\b`)},
	{HackforumsGoods, regexp.MustCompile(`\b(hackforums|hack forums|hf|bytes|vouch copy|ub3r|l33t)\b`)},
	{Hacking, regexp.MustCompile(`\b(hacking|hacker|exploits?|rat|crypter|botnets?|stresser|keylogger|malware|fud|sql injection|pentest|coding|programming|python|javascript|web development|website|develop|script)\b`)},
	{SocialBoost, regexp.MustCompile(`\b(instagram|youtube|twitter|tiktok|followers|likes|subscribers|views|upvotes|boost|boosting)\b`)},
	{Tutorials, regexp.MustCompile(`\b(tutorials?|guides?|ebooks?|method|methods|course|courses|mentoring|coaching)\b`)},
	{Tools, regexp.MustCompile(`\b(bots?|tools?|software|program|checker|generator|macro|automation)\b`)},
	{Multimedia, regexp.MustCompile(`\b(logos?|design|designs|banners?|video edit(ing)?|illustrations?|graphics?|thumbnails?|animations?|intro|artwork)\b`)},
	{EWhoring, regexp.MustCompile(`\b(ewhoring|ewhore|ewhores)\b`)},
	{Shipping, regexp.MustCompile(`\b(shipping|delivery|label|labels|parcel|postage)\b`)},
	{Academic, regexp.MustCompile(`\b(essays?|homework|dissertations?|assignments?|thesis|academic)\b`)},
	{Marketing, regexp.MustCompile(`\b(marketing|seo|promotions?|promoting|advertis\w*|traffic)\b`)},
	{Contest, regexp.MustCompile(`\b(contests?|giveaways?|raffles?|awards?)\b`)},
}

var refMethodRules = []struct {
	m  Method
	re *regexp.Regexp
}{
	// Order matters: multi-word crypto names are matched (and their
	// sub-strings excluded) before their prefixes.
	{MBitcoinCash, regexp.MustCompile(`\b(bitcoin cash|bch)\b`)},
	{MBitcoin, regexp.MustCompile(`\b(bitcoin|btc)\b`)},
	{MPayPal, regexp.MustCompile(`\b(paypal|pp)\b`)},
	{MAmazonGC, regexp.MustCompile(`\b(amazon giftcards?|amazon gc|agc)\b`)},
	{MCashapp, regexp.MustCompile(`\bcashapp\b`)},
	{MUSD, regexp.MustCompile(`\b(usd|dollars?)\b`)},
	{MEthereum, regexp.MustCompile(`\b(ethereum|eth)\b`)},
	{MVenmo, regexp.MustCompile(`\bvenmo\b`)},
	{MVBucks, regexp.MustCompile(`\bvbucks\b`)},
	{MZelle, regexp.MustCompile(`\bzelle\b`)},
	{MLitecoin, regexp.MustCompile(`\b(litecoin|ltc)\b`)},
	{MMonero, regexp.MustCompile(`\b(monero|xmr)\b`)},
	{MApplePay, regexp.MustCompile(`\b(apple pay|google pay|applepay|googlepay)\b`)},
	{MSkrill, regexp.MustCompile(`\bskrill\b`)},
}

func refClassify(text string) ([]Category, []Method) {
	norm := refNormalize(text)
	methods := refMethodsFromNorm(norm)
	var out []Category
	for _, rule := range refCatRules {
		if rule.re.MatchString(norm) {
			out = append(out, rule.cat)
		}
	}
	if !hasCategory(out, CurrencyExchange) && len(methods) >= 2 &&
		strings.Contains(norm, " for ") {
		out = append(out, CurrencyExchange)
	}
	if len(out) == 0 {
		return []Category{Uncategorised}, methods
	}
	return out, methods
}

func refMethodsFromNorm(norm string) []Method {
	var out []Method
	for _, rule := range refMethodRules {
		if rule.re.MatchString(norm) {
			if rule.m == MBitcoin {
				stripped := refMethodRules[0].re.ReplaceAllString(norm, " ")
				if !rule.re.MatchString(stripped) {
					continue
				}
			}
			out = append(out, rule.m)
		}
	}
	return out
}
