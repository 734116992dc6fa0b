package textmine

import (
	"reflect"
	"strings"
	"testing"
)

// The exact-token baseline of the categoriser ablation (DESIGN.md §6):
// BenchmarkAblationCategoriserTokens (corpus_test.go) runs it against
// the keyword rules' BenchmarkAblationCategoriserRegex on the same texts.

var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "i": true, "in": true,
	"is": true, "it": true, "my": true, "of": true, "on": true, "or": true,
	"the": true, "to": true, "will": true, "with": true, "you": true,
	"your": true, "me": true, "am": true, "this": true, "that": true,
}

// ContentTokens returns the normalised tokens with stop-words removed.
func ContentTokens(text string) []string {
	var out []string
	for _, tok := range strings.Fields(Normalize(text)) {
		if !stopwords[tok] {
			out = append(out, tok)
		}
	}
	return out
}

// TokenClassify is the exact-token baseline classifier: instead of the
// keyword rules it matches whole content tokens against a flat keyword →
// category index. Faster but blind to multi-word phrases ("bitcoin
// cash", "vouch copy").
func TokenClassify(text string) []Category {
	seen := map[Category]bool{}
	var out []Category
	for _, tok := range ContentTokens(text) {
		if cat, ok := tokenIndex[tok]; ok && !seen[cat] {
			seen[cat] = true
			out = append(out, cat)
		}
	}
	if len(out) == 0 {
		return []Category{Uncategorised}
	}
	return out
}

var tokenIndex = map[string]Category{
	"exchange": CurrencyExchange, "exchanging": CurrencyExchange, "swap": CurrencyExchange,
	"payment": Payments, "sending": Payments, "transfer": Payments,
	"giftcard": Giftcard, "giftcards": Giftcard, "coupon": Giftcard, "voucher": Giftcard,
	"account": Accounts, "accounts": Accounts, "license": Accounts, "netflix": Accounts,
	"fortnite": Gaming, "minecraft": Gaming, "steam": Gaming, "vbucks": Gaming,
	"bytes": HackforumsGoods, "hackforums": HackforumsGoods,
	"hacking": Hacking, "rat": Hacking, "botnet": Hacking, "python": Hacking, "coding": Hacking,
	"instagram": SocialBoost, "youtube": SocialBoost, "followers": SocialBoost,
	"tutorial": Tutorials, "guide": Tutorials, "ebook": Tutorials, "method": Tutorials,
	"bot": Tools, "tool": Tools, "software": Tools,
	"logo": Multimedia, "design": Multimedia, "banner": Multimedia,
	"ewhoring": EWhoring,
	"shipping": Shipping, "delivery": Shipping,
	"essay": Academic, "homework": Academic, "dissertation": Academic,
	"marketing": Marketing, "seo": Marketing,
	"contest": Contest, "giveaway": Contest,
}

func TestContentTokens(t *testing.T) {
	got := ContentTokens("I will sell the account to you")
	want := []string{"sell", "account"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestTokenClassifyBaseline(t *testing.T) {
	got := TokenClassify("selling netflix account")
	if !hasCat(got, Accounts) {
		t.Errorf("TokenClassify = %v", got)
	}
	// Known blind spot of the baseline: multi-word phrases.
	vc := TokenClassify("vouch copy please")
	if hasCat(vc, HackforumsGoods) {
		t.Errorf("token baseline unexpectedly matched a multi-word phrase: %v", vc)
	}
	if got := TokenClassify("zzz qqq"); len(got) != 1 || got[0] != Uncategorised {
		t.Errorf("TokenClassify fallback = %v", got)
	}
}
