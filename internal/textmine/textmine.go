// Package textmine classifies contract obligation text the way the paper
// does (§4.3–§4.5): normalisation (lower-casing, delimiter and stop-word
// removal, synonym unification), keyword-rule bucketing into manually
// defined trading-activity categories and payment methods, and extraction
// of quoted trading values with their currency denominations.
package textmine

import "strings"

// Category is a trading-activity bucket from the paper's Table 3.
type Category string

// The trading-activity buckets. Uncategorised marks text that no
// bucket's rule matches.
const (
	CurrencyExchange Category = "currency exchange"
	Payments         Category = "payments"
	Giftcard         Category = "giftcard/coupon/reward"
	Accounts         Category = "accounts/licenses"
	Gaming           Category = "gaming-related"
	HackforumsGoods  Category = "hackforums-related"
	Hacking          Category = "hacking/programming"
	SocialBoost      Category = "social network boost"
	Tutorials        Category = "tutorials/guides"
	Tools            Category = "tools/bots/software"
	Multimedia       Category = "multimedia"
	EWhoring         Category = "ewhoring"
	Shipping         Category = "delivery/shipping"
	Academic         Category = "academic help"
	Marketing        Category = "marketing"
	Contest          Category = "contest/award"
	Uncategorised    Category = "uncategorised"
)

// Categories lists all classifiable buckets (excluding Uncategorised) in
// a stable order.
var Categories = []Category{
	CurrencyExchange, Payments, Giftcard, Accounts, Gaming, HackforumsGoods,
	Hacking, SocialBoost, Tutorials, Tools, Multimedia, EWhoring, Shipping,
	Academic, Marketing, Contest,
}

// Method is a payment-method bucket from the paper's Table 4.
type Method string

// The payment-method buckets.
const (
	MBitcoin     Method = "Bitcoin"
	MPayPal      Method = "PayPal"
	MAmazonGC    Method = "Amazon Giftcards"
	MCashapp     Method = "Cashapp"
	MUSD         Method = "USD"
	MEthereum    Method = "Ethereum"
	MVenmo       Method = "Venmo"
	MVBucks      Method = "V-bucks"
	MZelle       Method = "Zelle"
	MBitcoinCash Method = "Bitcoin Cash"
	MLitecoin    Method = "Litecoin"
	MMonero      Method = "Monero"
	MApplePay    Method = "Apple/Google Pay"
	MSkrill      Method = "Skrill"
)

// Methods lists all payment-method buckets in a stable order.
var Methods = []Method{
	MBitcoin, MPayPal, MAmazonGC, MCashapp, MUSD, MEthereum, MVenmo,
	MVBucks, MZelle, MBitcoinCash, MLitecoin, MMonero, MApplePay, MSkrill,
}

// isSeparator marks the bytes Normalize turns into a space: the
// delimiters [,;:!?()[]{}"'*_/\|<>+=~`] and RE2's \s class [\t\n\f\r ].
// All are ASCII, so no byte of a multi-byte UTF-8 sequence is one.
var isSeparator = func() (t [256]bool) {
	for _, b := range []byte(",;:!?()[]{}\"'*_/\\|<>+=~`" + "\t\n\f\r ") {
		t[b] = true
	}
	return t
}()

// synonyms unifies common spellings before matching, mirroring the paper's
// "unifying synonyms" normalisation step.
var synonyms = []struct{ from, to string }{
	{"gift card", "giftcard"},
	{"gift cards", "giftcards"},
	{"cash app", "cashapp"},
	{"pay pal", "paypal"},
	{"vouch copies", "vouch copy"},
	{"e-whoring", "ewhoring"},
	{"e whoring", "ewhoring"},
	{"v bucks", "vbucks"},
	{"v-bucks", "vbucks"},
	{"insta ", "instagram "},
	{"yt ", "youtube "},
	{"remote access tool", "rat"},
	{"remote access trojan", "rat"},
}

// Normalize lower-cases the text, turns each run of delimiters and
// whitespace into one space in a single pass over the bytes, trims it,
// and unifies synonym spellings. Digits are retained because value
// extraction needs them.
func Normalize(text string) string {
	s := strings.ToLower(text)
	var b strings.Builder
	b.Grow(len(s))
	sep := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !isSeparator[c] {
			b.WriteByte(c)
		} else if !sep {
			b.WriteByte(' ')
		}
		sep = isSeparator[c]
	}
	s = strings.TrimSpace(b.String())
	for _, syn := range synonyms {
		s = strings.ReplaceAll(s, syn.from, syn.to)
	}
	return s
}

// A rule's keywords each match as a whole word of the normalised text:
// the bytes on either side of the keyword must not be ASCII word
// characters ([0-9A-Za-z_], the class RE2's \b tests), so "rat" matches
// "rat tool" but not "pirate" or "rat_". A trailing "*" makes the keyword
// a word-start prefix ("advertis*" matches "advertising").
type catRule struct {
	cat   Category
	words []string
}

var catRules = []catRule{
	{CurrencyExchange, []string{"exchange", "exchanging", "exchanged", "swap", "swapping", "convert", "converting", "cashout", "cash out"}},
	{Payments, []string{"payment", "payments", "paying", "send", "sending", "transfer", "transferring"}},
	{Giftcard, []string{"giftcard", "giftcards", "gc", "coupon", "coupons", "voucher", "vouchers", "reward card"}},
	{Accounts, []string{"account", "accounts", "license", "licenses", "licence", "alt", "alts", "subscription", "serial key", "activation key", "netflix", "spotify", "nordvpn", "upgrade key"}},
	{Gaming, []string{"fortnite", "minecraft", "csgo", "cs go", "steam", "roblox", "league of legends", "valorant", "gta", "vbucks", "skin", "skins", "in game", "ingame", "game"}},
	{HackforumsGoods, []string{"hackforums", "hack forums", "hf", "bytes", "vouch copy", "ub3r", "l33t"}},
	{Hacking, []string{"hacking", "hacker", "exploit", "exploits", "rat", "crypter", "botnet", "botnets", "stresser", "keylogger", "malware", "fud", "sql injection", "pentest", "coding", "programming", "python", "javascript", "web development", "website", "develop", "script"}},
	{SocialBoost, []string{"instagram", "youtube", "twitter", "tiktok", "followers", "likes", "subscribers", "views", "upvotes", "boost", "boosting"}},
	{Tutorials, []string{"tutorial", "tutorials", "guide", "guides", "ebook", "ebooks", "method", "methods", "course", "courses", "mentoring", "coaching"}},
	{Tools, []string{"bot", "bots", "tool", "tools", "software", "program", "checker", "generator", "macro", "automation"}},
	{Multimedia, []string{"logo", "logos", "design", "designs", "banner", "banners", "video edit", "video editing", "illustration", "illustrations", "graphic", "graphics", "thumbnail", "thumbnails", "animation", "animations", "intro", "artwork"}},
	{EWhoring, []string{"ewhoring", "ewhore", "ewhores"}},
	{Shipping, []string{"shipping", "delivery", "label", "labels", "parcel", "postage"}},
	{Academic, []string{"essay", "essays", "homework", "dissertation", "dissertations", "assignment", "assignments", "thesis", "academic"}},
	{Marketing, []string{"marketing", "seo", "promotion", "promotions", "promoting", "advertis*", "traffic"}},
	{Contest, []string{"contest", "contests", "giveaway", "giveaways", "raffle", "raffles", "award", "awards"}},
}

var methodRules = []struct {
	m     Method
	words []string
}{
	// Order matters: multi-word crypto names are matched (and their
	// sub-strings excluded) before their prefixes.
	{MBitcoinCash, []string{"bitcoin cash", "bch"}},
	{MBitcoin, []string{"bitcoin", "btc"}},
	{MPayPal, []string{"paypal", "pp"}},
	{MAmazonGC, []string{"amazon giftcard", "amazon giftcards", "amazon gc", "agc"}},
	{MCashapp, []string{"cashapp"}},
	{MUSD, []string{"usd", "dollar", "dollars"}},
	{MEthereum, []string{"ethereum", "eth"}},
	{MVenmo, []string{"venmo"}},
	{MVBucks, []string{"vbucks"}},
	{MZelle, []string{"zelle"}},
	{MLitecoin, []string{"litecoin", "ltc"}},
	{MMonero, []string{"monero", "xmr"}},
	{MApplePay, []string{"apple pay", "google pay", "applepay", "googlepay"}},
	{MSkrill, []string{"skrill"}},
}

// isWordByte reports whether b is an ASCII word character. Every byte of
// a multi-byte UTF-8 sequence is >= 0x80, so a non-ASCII neighbour is
// never a word character, as under RE2's \b.
func isWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// nextWord returns the start of the first whole-word occurrence of w in
// s at or after byte from, or -1.
func nextWord(s, w string, from int) int {
	prefix := w[len(w)-1] == '*'
	if prefix {
		w = w[:len(w)-1]
	}
	for from <= len(s) {
		i := strings.Index(s[from:], w)
		if i < 0 {
			return -1
		}
		i += from
		end := i + len(w)
		if (i == 0 || !isWordByte(s[i-1])) && (prefix || end == len(s) || !isWordByte(s[end])) {
			return i
		}
		from = i + 1
	}
	return -1
}

// hasAnyWord reports whether any of words occurs in s as a whole word.
func hasAnyWord(s string, words []string) bool {
	for _, w := range words {
		if nextWord(s, w, 0) >= 0 {
			return true
		}
	}
	return false
}

// stripWords replaces each whole-word occurrence of the plain (no "*")
// words in s with a space, scanning left to right the way regexp's
// ReplaceAllString does for \b(w1|w2|…)\b. next keeps each word's first
// occurrence at or after pos, so the scan stays linear in len(s).
func stripWords(s string, words []string) string {
	var b strings.Builder
	next := make([]int, len(words))
	for j, w := range words {
		next[j] = nextWord(s, w, 0)
	}
	pos := 0
	for {
		at, n := -1, 0
		for j, w := range words {
			if next[j] >= 0 && next[j] < pos {
				next[j] = nextWord(s, w, pos)
			}
			if next[j] >= 0 && (at < 0 || next[j] < at) {
				at, n = next[j], len(w)
			}
		}
		if at < 0 {
			break
		}
		b.WriteString(s[pos:at])
		b.WriteByte(' ')
		pos = at + n
	}
	b.WriteString(s[pos:])
	return b.String()
}

// Categorize assigns the obligation text to one or more trading-activity
// buckets (the paper: "some contracts are placed in more than one
// category"). Text that matches no rule returns just Uncategorised; there
// is no minimum length, so a single keyword ("netflix") is enough.
func Categorize(text string) []Category {
	cats, _ := Classify(text)
	return cats
}

// Classify computes both the trading-activity categories and the payment
// methods of the text over a single normalisation pass. It is exactly
// Categorize plus PaymentMethods, but normalises once instead of three
// times (Categorize's implicit-exchange rule needs the methods anyway).
func Classify(text string) ([]Category, []Method) {
	return classifyNorm(Normalize(text))
}

// Mine returns everything the analysis reads from one obligation text
// (its categories, payment methods and quoted values) from a single
// normalisation: Classify and ExtractValues in one call. The analysis
// index stores it per contract side.
func Mine(text string) ([]Category, []Method, []Money) {
	norm := Normalize(text)
	cats, methods := classifyNorm(norm)
	return cats, methods, valuesFromNorm(norm)
}

func classifyNorm(norm string) ([]Category, []Method) {
	methods := methodsFromNorm(norm)
	var out []Category
	for _, rule := range catRules {
		if hasAnyWord(norm, rule.words) {
			out = append(out, rule.cat)
		}
	}
	// Two distinct payment methods traded "for" each other is a currency
	// exchange even without an explicit exchange verb.
	if !hasCategory(out, CurrencyExchange) && len(methods) >= 2 &&
		strings.Contains(norm, " for ") {
		out = append(out, CurrencyExchange)
	}
	if len(out) == 0 {
		return []Category{Uncategorised}, methods
	}
	return out, methods
}

func hasCategory(cs []Category, c Category) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// PaymentMethods returns the payment-method buckets mentioned in the text.
// "bitcoin cash" is not double-counted as Bitcoin.
func PaymentMethods(text string) []Method {
	return methodsFromNorm(Normalize(text))
}

func methodsFromNorm(norm string) []Method {
	var out []Method
	bch := false
	for _, rule := range methodRules {
		if !hasAnyWord(norm, rule.words) {
			continue
		}
		switch rule.m {
		case MBitcoinCash:
			bch = true
		case MBitcoin:
			// Strip bitcoin-cash mentions before testing plain bitcoin.
			if bch && !hasAnyWord(stripWords(norm, methodRules[0].words), rule.words) {
				continue
			}
		}
		out = append(out, rule.m)
	}
	return out
}
