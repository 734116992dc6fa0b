package textmine

// RefClassify exposes the regex-era reference classifier to the external
// test package, which can import the market simulator without a cycle.
var RefClassify = refClassify
