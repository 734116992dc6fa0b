package market

import (
	"fmt"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/obs"
)

// Config controls a simulation run.
type Config struct {
	// Seed makes the run fully reproducible.
	Seed uint64
	// Scale multiplies all volume targets. 1.0 reproduces the paper-sized
	// corpus (~190k contracts, ~27k users); tests run at 0.02–0.10.
	Scale float64

	// Trace, when non-nil, records one span per simulated era and month
	// (wall time, allocation deltas, per-month volume attributes). The nil
	// default costs nothing (see internal/obs).
	Trace *obs.Tracer
	// Metrics, when non-nil, receives market_contracts_total,
	// market_users_total, and market_posts_total counters.
	Metrics *obs.Registry
}

// Validate checks the configuration.
func (c Config) Validate() error {
	// Written so that NaN, which fails every comparison, is rejected too.
	if !(c.Scale > 0 && c.Scale <= 4) {
		return fmt.Errorf("market: scale %v out of (0, 4]", c.Scale)
	}
	return nil
}

// monthlyCreated is the target number of created contracts per study month
// at Scale = 1, shaped to Figure 1: a SET-UP ramp that roughly doubles, the
// +172% jump when contracts become mandatory (2019-03), the April 2019 peak
// (~12.5k) and slow STABLE decline, then the COVID-19 spike peaking above
// the old maximum in April 2020 (~13.4k) before falling back.
var monthlyCreated = [dataset.NumMonths]float64{
	// 2018-06 .. 2019-02 (SET-UP)
	2300, 2600, 2800, 3000, 3200, 3500, 3900, 4300, 4600,
	// 2019-03 .. 2020-02 (STABLE)
	12200, 12500, 11600, 11000, 10400, 9900, 9400, 9000, 8700, 8400, 8100, 7900,
	// 2020-03 .. 2020-06 (COVID-19; March straddles the era boundary)
	9800, 13400, 10100, 8600,
}

// monthlyNewUsers is the target number of users joining the contract system
// each month at Scale = 1, shaped to Figure 1's new-member series: a gentle
// SET-UP decline, the March 2019 burst (~3.75× the month before), decline
// to under half the peak by late STABLE, and a short COVID uplift.
var monthlyNewUsers = [dataset.NumMonths]float64{
	1000, 950, 920, 880, 850, 830, 810, 800, 800,
	3000, 2200, 1700, 1400, 1200, 1100, 1000, 950, 900, 850, 800, 750,
	900, 1400, 700, 450,
}

// typeShare gives the per-month probability of each contract type in the
// order SALE, PURCHASE, EXCHANGE, TRADE, VOUCH COPY (Figure 3): EXCHANGE
// leads early SET-UP, SALE and EXCHANGE swap at the STABLE transition, and
// VOUCH COPY appears in February 2020 and grows.
func typeShare(m dataset.Month) [forum.NumContractTypes]float64 {
	switch {
	case m <= 2: // Jun–Aug 2018
		return [forum.NumContractTypes]float64{0.38, 0.09, 0.50, 0.03, 0}
	case m <= 5: // Sep–Nov 2018
		return [forum.NumContractTypes]float64{0.42, 0.10, 0.45, 0.03, 0}
	case m <= 8: // Dec 2018–Feb 2019
		return [forum.NumContractTypes]float64{0.46, 0.12, 0.40, 0.02, 0}
	case m <= 14: // Mar–Aug 2019
		return [forum.NumContractTypes]float64{0.705, 0.10, 0.18, 0.015, 0}
	case m == 18: // Dec 2019: the Christmas/New-Year spike in PURCHASE and
		// EXCHANGE the paper notes in §5.1.
		return [forum.NumContractTypes]float64{0.655, 0.135, 0.195, 0.015, 0}
	case m <= 19: // Sep 2019–Jan 2020
		return [forum.NumContractTypes]float64{0.71, 0.105, 0.17, 0.015, 0}
	case m == 20: // Feb 2020: VOUCH COPY introduced
		return [forum.NumContractTypes]float64{0.705, 0.10, 0.17, 0.015, 0.01}
	case m <= 22: // Mar–Apr 2020
		return [forum.NumContractTypes]float64{0.70, 0.10, 0.17, 0.013, 0.017}
	default: // May–Jun 2020
		return [forum.NumContractTypes]float64{0.695, 0.10, 0.165, 0.015, 0.025}
	}
}

// publicShare is the probability a newly created contract is public, by
// month (Figure 2): ~45% at launch, >50% in August 2018, declining to ~20%
// by late SET-UP, dropping to ~10% when contracts become mandatory.
var publicShare = [dataset.NumMonths]float64{
	0.45, 0.48, 0.52, 0.44, 0.37, 0.31, 0.27, 0.23, 0.20,
	0.115, 0.11, 0.105, 0.10, 0.10, 0.10, 0.095, 0.095, 0.09, 0.09, 0.09, 0.09,
	0.095, 0.10, 0.095, 0.09,
}

// statusWeights returns the lifecycle-outcome distribution for a contract
// of the given type and visibility, in the order:
// completed, active, disputed, incomplete, cancelled, denied, expired.
// The private columns are calibrated to the paper's Table 1 within-type
// proportions; public contracts shift ~15 points of mass from incomplete
// to completed (the paper: 57.0% of public vs 41.7% of private contracts
// settle).
func statusWeights(t forum.ContractType, public bool) [7]float64 {
	// These are Table 1's within-type target proportions. The engine
	// divides the completed weight by each contract's penalty survival
	// factor (flaky traders, newcomer suspicion), so the *realised* rates
	// land on these targets while completion stays strongly heterogeneous
	// across users.
	var w [7]float64
	switch t {
	case forum.Sale:
		w = [7]float64{0.327, 0.016, 0.0075, 0.543, 0.056, 0.0005, 0.050}
	case forum.Purchase:
		w = [7]float64{0.531, 0.001, 0.023, 0.210, 0.106, 0.0013, 0.123}
	case forum.Exchange:
		w = [7]float64{0.698, 0.0001, 0.010, 0.083, 0.143, 0.0016, 0.064}
	case forum.Trade:
		w = [7]float64{0.564, 0.0005, 0.009, 0.233, 0.084, 0.0013, 0.109}
	case forum.VouchCopy:
		w = [7]float64{0.577, 0.0, 0.003, 0.232, 0.057, 0.0, 0.130}
	}
	if public {
		shift := 0.15 * w[3]
		w[3] -= shift
		w[0] += shift
		// Public contracts are also where disputes surface.
		w[2] *= 1.3
	}
	return w
}

// disputeBoost scales dispute probability by month: the paper observes
// disputes at ~1% for most of the study but peaking at 2–3% in the last
// six months of SET-UP (the Tuckman "storming" signal), halving at the
// start of STABLE.
func disputeBoost(m dataset.Month) float64 {
	switch {
	case m >= 3 && m <= 8: // Sep 2018–Feb 2019
		return 2.8
	case m <= 2:
		return 1.2
	default:
		return 1.0
	}
}

// completionMeanHours is the mean completion time by month (Figure 4):
// slowest in early SET-UP, a drop into STABLE, and under 10 hours by June
// 2020.
var completionMeanHours = [dataset.NumMonths]float64{
	95, 90, 84, 78, 72, 66, 60, 55, 50,
	40, 38, 36, 34, 32, 30, 29, 28, 26, 25, 24, 22,
	17, 13, 11, 9,
}

// completionRecordedProb is the chance a completed contract carries an
// explicit completion date (the paper: ~70% of completed contracts do).
const completionRecordedProb = 0.70

// threadLinkProb is the chance a public contract is associated with an
// advertising thread (the paper: 68.4% of public contracts).
const threadLinkProb = 0.684

// chainEvidenceProb is the chance a Bitcoin-denominated contract quotes a
// transaction hash / address that the synthetic ledger can be checked
// against.
const chainEvidenceProb = 0.20

// Audit mix for ledger-backed values (§4.5): 50% confirmed, 43% recorded at
// a different (usually lower) value, 7% with no matching transaction.
const (
	auditConfirmedProb = 0.50
	auditMismatchProb  = 0.43
)

// typoProb is the chance a quoted value suffers a magnitude typo (×10 or
// ×100); the paper found values beyond $10,000 were "likely due to typing
// errors".
const typoProb = 0.004

// covidTradeNoiseMonths are the months where TRADE completion times show
// the short-lived noise peaks of Figure 4 (February and April 2020).
var covidTradeNoiseMonths = map[dataset.Month]bool{20: true, 22: true}
