package ir

// CheckPrinter, CheckVerify and CheckCFG let the external test package
// (which may import internal/dataset and internal/rewrite; this one
// cannot) run the reference comparisons.
var (
	CheckPrinter = checkPrinter
	CheckVerify  = checkVerify
	CheckCFG     = checkCFG
)
