package textmine

// Reference normaliser and value extractor: the regular expressions and
// code as they stood before the byte scanners, kept test-only so the
// differential tests (FuzzNormalizeMatchesRegex,
// FuzzExtractValuesMatchesRegex and TestMineMatchesRegexOnCorpora) can
// require Normalize and ExtractValues to give the same output for every
// input.

import (
	"regexp"
	"sort"
	"strconv"
	"strings"

	"turnup/internal/fx"
)

var (
	refDelimRe      = regexp.MustCompile(`[,;:!?()\[\]{}"'*_/\\|<>+=~` + "`" + `]`)
	refMultiSpaceRe = regexp.MustCompile(`\s+`)
)

func refNormalize(text string) string {
	s := strings.ToLower(text)
	s = refDelimRe.ReplaceAllString(s, " ")
	s = refMultiSpaceRe.ReplaceAllString(s, " ")
	s = strings.TrimSpace(s)
	for _, syn := range synonyms {
		s = strings.ReplaceAll(s, syn.from, syn.to)
	}
	return s
}

var (
	refSymbolValRe = regexp.MustCompile(`([$£€])\s?([0-9]+(?:\.[0-9]+)?)(k?)\b`)
	refCryptoValRe = regexp.MustCompile(`\b([0-9]*\.?[0-9]+)\s?(btc|bitcoin|eth|ethereum|ltc|litecoin|xmr|monero|bch)\b`)
	refFiatValRe   = regexp.MustCompile(`\b([0-9]+(?:\.[0-9]+)?)(k?)\s?(usd|dollars?|gbp|pounds?|eur|euros?|cad|aud|inr|jpy|yen)\b`)
)

func refExtractValues(text string) []Money {
	return refValuesFromNorm(refNormalize(text))
}

func refValuesFromNorm(norm string) []Money {
	type mention struct {
		start int
		money Money
	}
	var mentions []mention
	taken := make([]bool, len(norm))
	claim := func(lo, hi int) bool {
		for i := lo; i < hi && i < len(taken); i++ {
			if taken[i] {
				return false
			}
		}
		for i := lo; i < hi && i < len(taken); i++ {
			taken[i] = true
		}
		return true
	}

	for _, idx := range refSymbolValRe.FindAllStringSubmatchIndex(norm, -1) {
		amtStr := norm[idx[4]:idx[5]]
		amt, err := strconv.ParseFloat(amtStr, 64)
		if err != nil || !claim(idx[0], idx[1]) {
			continue
		}
		if idx[6] >= 0 && norm[idx[6]:idx[7]] == "k" {
			amt *= 1000
		}
		cur := fx.USD
		switch norm[idx[2]:idx[3]] {
		case "£":
			cur = fx.GBP
		case "€":
			cur = fx.EUR
		}
		mentions = append(mentions, mention{idx[0], Money{Amount: amt, Currency: cur}})
	}
	for _, idx := range refCryptoValRe.FindAllStringSubmatchIndex(norm, -1) {
		amt, err := strconv.ParseFloat(norm[idx[2]:idx[3]], 64)
		if err != nil || !claim(idx[0], idx[1]) {
			continue
		}
		if cur, ok := fx.ParseCurrency(norm[idx[4]:idx[5]]); ok {
			mentions = append(mentions, mention{idx[0], Money{Amount: amt, Currency: cur}})
		}
	}
	for _, idx := range refFiatValRe.FindAllStringSubmatchIndex(norm, -1) {
		amt, err := strconv.ParseFloat(norm[idx[2]:idx[3]], 64)
		if err != nil || !claim(idx[0], idx[1]) {
			continue
		}
		if idx[4] >= 0 && norm[idx[4]:idx[5]] == "k" {
			amt *= 1000
		}
		if cur, ok := fx.ParseCurrency(norm[idx[6]:idx[7]]); ok {
			mentions = append(mentions, mention{idx[0], Money{Amount: amt, Currency: cur}})
		}
	}
	sort.SliceStable(mentions, func(i, j int) bool { return mentions[i].start < mentions[j].start })
	out := make([]Money, 0, len(mentions))
	for _, m := range mentions {
		out = append(out, m.money)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
