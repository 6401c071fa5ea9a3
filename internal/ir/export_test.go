package ir

// CheckPrinter, CheckVerify, CheckCFG and CheckClone let the external
// test package (which may import internal/dataset and internal/rewrite;
// this one cannot) run the reference comparisons.
var (
	CheckPrinter = checkPrinter
	CheckVerify  = checkVerify
	CheckCFG     = checkCFG
	CheckClone   = checkClone
)

// FormatInstr renders one instruction without indentation or newline,
// for test messages; the product prints whole functions.
func FormatInstr(in *Instr) string { return string(new(printer).instr(in).buf) }
