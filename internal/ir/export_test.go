package ir

// CheckPrinter lets the external test package (which may import
// internal/dataset; this one cannot) run the reference comparison.
var CheckPrinter = checkPrinter
