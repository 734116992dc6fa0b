package market

import (
	"math"
	"strconv"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/fx"
	"turnup/internal/rng"
	"turnup/internal/textmine"
)

// obligation is the generated content of one contract: the two obligation
// texts plus the ground-truth the simulator knows about them (used for
// ledger entries and calibration tests, never by the analyses themselves).
type obligation struct {
	makerText string
	takerText string
	valueUSD  float64 // intended transaction value (0 when none, e.g. vouch copies)
	category  textmine.Category
	methods   []textmine.Method
	typo      bool // a magnitude typo was injected into the text
}

// paymentPair is a two-sided currency-exchange channel with a sampling
// weight; weights are tuned so Bitcoin appears in ~3/4 and PayPal in ~2/5
// of payment-classified contracts, the Table 4 marginals.
type paymentPair struct {
	a, b   textmine.Method
	weight float64
}

var exchangePairs = []paymentPair{
	{textmine.MBitcoin, textmine.MPayPal, 0.380},
	{textmine.MBitcoin, textmine.MAmazonGC, 0.100},
	{textmine.MBitcoin, textmine.MCashapp, 0.048},
	{textmine.MBitcoin, textmine.MUSD, 0.030},
	{textmine.MBitcoin, textmine.MEthereum, 0.026},
	{textmine.MBitcoin, textmine.MVenmo, 0.012},
	{textmine.MBitcoin, textmine.MZelle, 0.008},
	{textmine.MBitcoin, textmine.MVBucks, 0.005},
	{textmine.MBitcoin, textmine.MApplePay, 0.005},
	{textmine.MBitcoin, textmine.MBitcoinCash, 0.004},
	{textmine.MBitcoin, textmine.MLitecoin, 0.003},
	{textmine.MBitcoin, textmine.MMonero, 0.003},
	{textmine.MPayPal, textmine.MAmazonGC, 0.040},
	{textmine.MPayPal, textmine.MCashapp, 0.020},
	{textmine.MPayPal, textmine.MUSD, 0.015},
	{textmine.MPayPal, textmine.MEthereum, 0.006},
	{textmine.MPayPal, textmine.MVBucks, 0.007},
	{textmine.MPayPal, textmine.MApplePay, 0.005},
	{textmine.MPayPal, textmine.MSkrill, 0.004},
	{textmine.MAmazonGC, textmine.MCashapp, 0.006},
	{textmine.MAmazonGC, textmine.MUSD, 0.004},
	{textmine.MEthereum, textmine.MUSD, 0.003},
	{textmine.MCashapp, textmine.MUSD, 0.005},
	{textmine.MCashapp, textmine.MZelle, 0.003},
}

// singleMethodWeights draws the method for one-sided money movements
// (payments, giftcard purchases, priced goods).
var singleMethods = []textmine.Method{
	textmine.MBitcoin, textmine.MPayPal, textmine.MCashapp, textmine.MAmazonGC,
	textmine.MUSD, textmine.MEthereum, textmine.MVenmo, textmine.MZelle,
	textmine.MApplePay, textmine.MSkrill,
}

var singleMethodWeights = []float64{0.48, 0.26, 0.08, 0.05, 0.04, 0.03, 0.02, 0.015, 0.015, 0.01}

// saleCategoryMix is the trading-activity mix for SALE and PURCHASE
// contracts. Currency movement dominates (the forum is a cash-out market);
// the goods tail follows the Table 3 ordering.
var saleCategories = []textmine.Category{
	textmine.CurrencyExchange, textmine.Payments, textmine.Giftcard,
	textmine.Accounts, textmine.Gaming, textmine.HackforumsGoods,
	textmine.Hacking, textmine.SocialBoost, textmine.Tutorials,
	textmine.Tools, textmine.Multimedia, textmine.EWhoring,
	textmine.Shipping, textmine.Academic, textmine.Marketing,
	textmine.Contest,
}

var saleCategoryWeights = []float64{
	0.46, 0.13, 0.095, 0.055, 0.043, 0.040,
	0.028, 0.024, 0.022, 0.020, 0.016, 0.010,
	0.007, 0.007, 0.007, 0.005,
}

// categoryValueScale gives the log-normal value parameters per category.
var categoryValue = map[textmine.Category][2]float64{ // {mu, sigma} of ln(USD)
	textmine.CurrencyExchange: {3.70, 1.42},
	textmine.Payments:         {3.40, 1.25},
	textmine.Giftcard:         {3.10, 0.80},
	textmine.Accounts:         {2.60, 0.90},
	textmine.Gaming:           {2.70, 0.90},
	textmine.HackforumsGoods:  {2.40, 0.90},
	textmine.Hacking:          {3.30, 1.20},
	textmine.SocialBoost:      {2.50, 0.90},
	textmine.Tutorials:        {2.30, 0.80},
	textmine.Tools:            {2.60, 0.90},
	textmine.Multimedia:       {2.60, 0.80},
	textmine.EWhoring:         {2.50, 0.80},
	textmine.Shipping:         {1.80, 0.60},
	textmine.Academic:         {3.00, 0.80},
	textmine.Marketing:        {2.80, 0.90},
	textmine.Contest:          {2.00, 0.80},
}

// goods catalogues per category, cycled deterministically.
var goodsByCategory = map[textmine.Category][]string{
	textmine.Giftcard: {
		"amazon giftcard", "amazon gc", "google play giftcard", "steam giftcard",
		"itunes giftcard", "xbox giftcard",
	},
	textmine.Accounts: {
		"netflix account lifetime", "spotify premium account", "nordvpn subscription",
		"minecraft alts", "windows license key", "hulu account", "office license",
	},
	textmine.Gaming: {
		"fortnite account with rare skins", "csgo skins", "2000 vbucks",
		"steam account stacked", "minecraft account full access", "gta modded account",
	},
	textmine.HackforumsGoods: {
		"500k bytes", "250k bytes", "hf upgrade", "1m bytes",
	},
	textmine.Hacking: {
		"custom python script", "rat setup service", "website development",
		"crypter fud service", "web scraping script", "discord bot coding",
	},
	textmine.SocialBoost: {
		"1000 instagram followers", "youtube views boost", "tiktok likes package",
		"twitter followers", "5000 youtube subscribers",
	},
	textmine.Tutorials: {
		"youtube method tutorial", "dropshipping ebook", "passive income guide",
		"crypto trading course", "refund method guide",
	},
	textmine.Tools: {
		"account checker tool", "scraper bot", "keyword generator software",
		"proxy checker program", "auto poster bot",
	},
	textmine.Multimedia: {
		"logo design", "banner design", "video editing service",
		"channel intro animation", "graphics artwork pack",
	},
	textmine.EWhoring: {
		"ewhoring pack 800 pics", "ewhoring starter pack", "ewhoring method pack",
	},
	textmine.Shipping: {
		"discounted shipping label", "parcel delivery service", "postage label",
	},
	textmine.Academic: {
		"essay writing help", "math homework help", "dissertation chapter",
		"assignment writing service",
	},
	textmine.Marketing: {
		"seo service", "website traffic promotion", "marketing campaign setup",
		"advertising banner slots",
	},
	textmine.Contest: {
		"giveaway entry", "contest award payout", "raffle tickets",
	},
}

// textGen produces obligation texts. It holds its own RNG stream.
type textGen struct {
	src       *rng.Source
	fxTab     *fx.Table
	goodsIdx  map[textmine.Category]int
	pairW     []float64
	highValue bool // transient flag: force a high-value draw (hacking spikes)
}

func newTextGen(src *rng.Source, tab *fx.Table) *textGen {
	pw := make([]float64, len(exchangePairs))
	for i, p := range exchangePairs {
		pw[i] = p.weight
	}
	return &textGen{
		src:      src,
		fxTab:    tab,
		goodsIdx: make(map[textmine.Category]int),
		pairW:    pw,
	}
}

func (g *textGen) nextGood(cat textmine.Category) string {
	goods := goodsByCategory[cat]
	if len(goods) == 0 {
		return "misc goods"
	}
	// Random-but-deterministic rotation keeps variety without favouring
	// the first entry.
	i := g.goodsIdx[cat] % len(goods)
	g.goodsIdx[cat] = g.goodsIdx[cat] + 1 + g.src.Intn(2)
	return goods[i]
}

// drawValue samples a USD value for the category, capped near the paper's
// observed maximum (~$9.9k).
func (g *textGen) drawValue(cat textmine.Category) float64 {
	p, ok := categoryValue[cat]
	if !ok {
		p = [2]float64{2.5, 0.9}
	}
	mu, sigma := p[0], p[1]
	if g.highValue {
		mu += 2.2
		g.highValue = false
	}
	v := g.src.LogNormal(mu, sigma)
	if v < 1 {
		v = 1
	}
	if v > 9900 {
		v = 9900 - g.src.Float64()*900
	}
	return math.Round(v*100) / 100
}

// fixed formats v with prec decimals, as fmt's %.<prec>f does for the
// finite values the generator draws.
func fixed(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// amount renders a USD value in the denomination conventions the text
// miner must parse: plain dollars, explicit "usd", or a crypto amount.
func (g *textGen) amount(usd float64, m textmine.Method, monthIdx int) string {
	switch m {
	case textmine.MBitcoin, textmine.MEthereum, textmine.MLitecoin, textmine.MMonero, textmine.MBitcoinCash:
		// 30% of crypto mentions quote the coin amount instead of dollars.
		if g.src.Bool(0.30) {
			cur := methodCurrency(m)
			rate, err := g.fxTab.Rate(cur, monthTime(monthIdx))
			if err == nil && rate > 0 {
				return fixed(usd/rate, 5) + " " + string(cur)
			}
		}
		return "$" + fixed(usd, 2) + " " + methodToken(m)
	case textmine.MUSD:
		if g.src.Bool(0.5) {
			return fixed(usd, 0) + " usd"
		}
		return "$" + fixed(usd, 2) + " cash"
	default:
		return "$" + fixed(usd, 2) + " " + methodToken(m)
	}
}

func methodToken(m textmine.Method) string {
	switch m {
	case textmine.MBitcoin:
		return "btc"
	case textmine.MPayPal:
		return "paypal"
	case textmine.MAmazonGC:
		return "amazon gc"
	case textmine.MCashapp:
		return "cashapp"
	case textmine.MUSD:
		return "usd"
	case textmine.MEthereum:
		return "eth"
	case textmine.MVenmo:
		return "venmo"
	case textmine.MVBucks:
		return "vbucks"
	case textmine.MZelle:
		return "zelle"
	case textmine.MBitcoinCash:
		return "bitcoin cash"
	case textmine.MLitecoin:
		return "ltc"
	case textmine.MMonero:
		return "xmr"
	case textmine.MApplePay:
		return "apple pay"
	case textmine.MSkrill:
		return "skrill"
	}
	return "btc"
}

func methodCurrency(m textmine.Method) fx.Currency {
	switch m {
	case textmine.MBitcoin:
		return fx.BTC
	case textmine.MEthereum:
		return fx.ETH
	case textmine.MLitecoin:
		return fx.LTC
	case textmine.MMonero:
		return fx.XMR
	case textmine.MBitcoinCash:
		return fx.BCH
	default:
		return fx.USD
	}
}

// generate builds the obligation content for a contract of the given type
// created in study month monthIdx.
func (g *textGen) generate(t forum.ContractType, monthIdx int) obligation {
	switch t {
	case forum.Exchange:
		return g.genExchange(monthIdx)
	case forum.VouchCopy:
		return g.genVouchCopy()
	case forum.Trade:
		return g.genTrade()
	default: // SALE and PURCHASE share the goods mix; sides swap.
		return g.genSale(t, monthIdx)
	}
}

func (g *textGen) genExchange(monthIdx int) obligation {
	// A slice of exchanges are giftcard-for-crypto rather than pure
	// currency pairs.
	if g.src.Bool(0.10) {
		v := g.drawValue(textmine.Giftcard)
		pay := v * (0.75 + 0.15*g.src.Float64())
		method := singleMethods[g.src.Categorical([]float64{0.6, 0.3, 0.1, 0, 0, 0, 0, 0, 0, 0})]
		o := obligation{
			makerText: "exchanging $" + fixed(v, 2) + " amazon gc for " + g.amount(pay, method, monthIdx),
			takerText: "i will send " + g.amount(pay, method, monthIdx),
			valueUSD:  (v + pay) / 2,
			category:  textmine.Giftcard,
			methods:   []textmine.Method{textmine.MAmazonGC, method},
		}
		return o
	}
	pair := exchangePairs[g.src.Categorical(g.pairW)]
	a, b := pair.a, pair.b
	if g.src.Bool(0.5) {
		a, b = b, a
	}
	v := g.drawValue(textmine.CurrencyExchange)
	// Bitcoin commands a premium over other cash-out methods: the side
	// paying for BTC pays a few percent more.
	vb := v
	if a == textmine.MBitcoin {
		vb = v * (1.0 + 0.10*g.src.Float64())
	} else if b == textmine.MBitcoin {
		vb = v * (1.0 - 0.08*g.src.Float64())
	}
	if vb > 9900 {
		vb = 9900 // keep genuine values under the paper's observed maximum
	}
	o := obligation{
		makerText: "exchanging " + g.amount(v, a, monthIdx) + " for " + g.amount(vb, b, monthIdx),
		takerText: g.exchangeTakerText(vb, b, monthIdx),
		valueUSD:  (v + vb) / 2,
		category:  textmine.CurrencyExchange,
		methods:   []textmine.Method{a, b},
	}
	return o
}

// exchangeTakerText phrases the taker side of an exchange. About half
// mention sending a payment (firing the paper's "payments" bucket too),
// the rest only the exchange itself.
func (g *textGen) exchangeTakerText(usd float64, m textmine.Method, monthIdx int) string {
	if g.src.Bool(0.5) {
		return "in exchange i will send " + g.amount(usd, m, monthIdx)
	}
	return "exchanging my " + g.amount(usd, m, monthIdx) + " for it"
}

func (g *textGen) genSale(t forum.ContractType, monthIdx int) obligation {
	cat := saleCategories[g.src.Categorical(saleCategoryWeights)]
	verb := "selling"
	if t == forum.Purchase {
		verb = "buying"
	}
	switch cat {
	case textmine.CurrencyExchange:
		// Cash-out posted as SALE: "selling $100 btc for $105 paypal".
		pair := exchangePairs[g.src.Categorical(g.pairW)]
		v := g.drawValue(cat)
		vb := v * (0.95 + 0.12*g.src.Float64())
		return obligation{
			makerText: verb + " " + g.amount(v, pair.a, monthIdx) + " for " + g.amount(vb, pair.b, monthIdx),
			takerText: g.exchangeTakerText(vb, pair.b, monthIdx),
			valueUSD:  (v + vb) / 2,
			category:  cat,
			methods:   []textmine.Method{pair.a, pair.b},
		}
	case textmine.Payments:
		m := singleMethods[g.src.Categorical(singleMethodWeights)]
		v := g.drawValue(cat)
		return obligation{
			makerText: "sending a " + g.amount(v, m, monthIdx) + " payment",
			takerText: "i will transfer " + g.amount(v*(0.9+0.15*g.src.Float64()), m, monthIdx) + " back",
			valueUSD:  v,
			category:  cat,
			methods:   []textmine.Method{m},
		}
	default:
		good := g.nextGood(cat)
		m := singleMethods[g.src.Categorical(singleMethodWeights)]
		// Figure 11's hacking/programming value spikes (October 2018 and
		// January 2020): a handful of genuinely high-value development
		// contracts, which the paper manually confirmed as real trades.
		if cat == textmine.Hacking && (monthIdx == 4 || monthIdx == 19) && g.src.Bool(0.25) {
			g.highValue = true
		}
		v := g.drawValue(cat)
		maker := verb + " " + good
		taker := "i will pay " + g.amount(v, m, monthIdx) + " for the " + good
		if t == forum.Purchase {
			// Maker is the buyer: maker pays, taker delivers.
			maker = "buying " + good + ", paying " + g.amount(v, m, monthIdx)
			taker = "delivering the " + good
		}
		return obligation{
			makerText: maker,
			takerText: taker,
			valueUSD:  v,
			category:  cat,
			methods:   []textmine.Method{m},
		}
	}
}

func (g *textGen) genTrade() obligation {
	give := g.nextGood(textmine.Gaming)
	get := g.nextGood(textmine.Accounts)
	v := g.drawValue(textmine.Gaming)
	return obligation{
		makerText: "trading my " + give + " for " + get,
		takerText: "trading my " + get,
		valueUSD:  v,
		category:  textmine.Gaming,
		methods:   nil,
	}
}

func (g *textGen) genVouchCopy() obligation {
	good := g.nextGood(textmine.Tutorials)
	return obligation{
		makerText: "vouch copy of my " + good,
		takerText: "i will leave an honest vouch on hackforums",
		valueUSD:  0,
		category:  textmine.HackforumsGoods,
		methods:   nil,
	}
}

// injectTypo multiplies the first dollar amount in the text by 10 or 100,
// reproducing the magnitude typos the paper's audit uncovers. It returns
// the corrupted maker text.
func injectTypo(text string, factor int) string {
	// Append an extra digit group: "$120.00" → "$12000.00" is achieved by
	// simply repeating the integer part; keeping it textual avoids
	// re-parsing. A crude but realistic fat-finger.
	out := make([]byte, 0, len(text)+2)
	injected := false
	for i := 0; i < len(text); i++ {
		out = append(out, text[i])
		if !injected && text[i] == '$' && i+1 < len(text) && text[i+1] >= '1' && text[i+1] <= '9' {
			out = append(out, text[i+1])
			if factor == 100 {
				out = append(out, text[i+1])
			}
			injected = true
		}
	}
	return string(out)
}

func monthTime(monthIdx int) time.Time {
	return dataset.Month(monthIdx).Time()
}
