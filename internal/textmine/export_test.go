package textmine

// The regex-era references, exposed to the external test package, which
// can import the market simulator without a cycle.
var (
	RefClassify      = refClassify
	RefNormalize     = refNormalize
	RefExtractValues = refExtractValues
)
