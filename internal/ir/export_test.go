package ir

// CheckPrinter, CheckVerify, CheckCFG, CheckClone, CheckDCE,
// CheckParse, CheckCopierParse and CheckPositions let the external test
// package (which may import internal/dataset and internal/rewrite; this
// one cannot) run the reference comparisons.
var (
	CheckPrinter     = checkPrinter
	CheckVerify      = checkVerify
	CheckCFG         = checkCFG
	CheckClone       = checkClone
	CheckDCE         = checkDCE
	CheckParse       = checkParse
	CheckCopierParse = checkCopierParse
	CheckPositions   = checkPositions
)

// SampleFn is the internal tests' sample function, for the external
// test package's fuzz corpus.
const SampleFn = sampleFn

// FormatInstr renders one instruction without indentation or newline,
// for test messages; the product prints whole functions.
func FormatInstr(in *Instr) string { return string(new(printer).instr(in).buf) }

// phi emits a phi node of the given type with the given incomings.
func (b *Builder) phi(ty Type, incs ...Incoming) *Instr {
	return b.insert(&Instr{Op: OpPhi, Ty: ty, Incs: incs})
}

// block returns the block with the given label, or nil.
func (f *Function) block(name string) *Block {
	for _, b := range f.Blocks {
		if b.NameStr == name {
			return b
		}
	}
	return nil
}
