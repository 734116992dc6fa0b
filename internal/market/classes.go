package market

// Class identifies one of the 12 latent behaviour classes of the paper's
// Table 6 (A through L).
type Class int

// The 12 behaviour classes.
const (
	ClassA     Class = iota // mid-level SALE taker
	ClassB                  // exchanger & SALE taker
	ClassC                  // single SALE maker
	ClassD                  // single exchanger
	ClassE                  // exchanger power-user
	ClassF                  // mid-level exchanger
	ClassG                  // exchanger power-user
	ClassH                  // mid-level PURCHASE maker
	ClassI                  // mid-level SALE maker
	ClassJ                  // single SALE taker
	ClassK                  // exchanger power-user
	ClassL                  // SALE taker power-user
	NumClasses = 12
)

// String renders the class letter.
func (c Class) String() string { return string(rune('A' + int(c))) }

// populationShare is the probability a newly joining user belongs to each
// class. The bulk are one-shot users (C, D, J); power classes (E, G, K, L)
// are rare, producing the concentrated market of §4.2.
var populationShare = [NumClasses]float64{
	ClassA: 0.045,
	ClassB: 0.045,
	ClassC: 0.450,
	ClassD: 0.125,
	ClassE: 0.010,
	ClassF: 0.040,
	ClassG: 0.007,
	ClassH: 0.045,
	ClassI: 0.022,
	ClassJ: 0.150,
	ClassK: 0.004,
	ClassL: 0.003,
}

// latePowerDamp scales the power classes' join probability after SET-UP:
// the paper finds power-users established themselves during SET-UP and
// later cohorts are dominated by small-scale users.
const latePowerDamp = 0.35

func isPowerClass(c Class) bool {
	return c == ClassE || c == ClassG || c == ClassK || c == ClassL
}

// meanLifetimeMonths is the expected number of months a user of the class
// stays active after joining (geometric churn). Power classes effectively
// persist for the whole study.
var meanLifetimeMonths = [NumClasses]float64{
	ClassA: 5, ClassB: 5, ClassC: 1.3, ClassD: 1.4, ClassE: 14,
	ClassF: 6, ClassG: 18, ClassH: 6, ClassI: 5, ClassJ: 1.3,
	ClassK: 26, ClassL: 26,
}

// flakyProb is the chance a newly joining user of the class is a "flaky"
// trader whose deals systematically fall through (scammers, abandoners,
// one-time chancers). One-shot classes carry most of the risk; power
// users survive precisely because they complete.
func flakyProb(c Class) float64 {
	switch {
	case c == ClassC || c == ClassD || c == ClassJ:
		return 0.35
	case isPowerClass(c):
		return 0
	default:
		return 0.18
	}
}

// monthlyPostRate is the mean number of marketplace-section posts a user of
// the class writes per active month (general forum posts are a multiple).
var monthlyPostRate = [NumClasses]float64{
	ClassA: 4, ClassB: 3, ClassC: 1.2, ClassD: 1.2, ClassE: 10,
	ClassF: 4, ClassG: 12, ClassH: 4, ClassI: 5, ClassJ: 1.0,
	ClassK: 18, ClassL: 15,
}
