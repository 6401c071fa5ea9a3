package instcombine

// StepAt is stepAt, for the external tests.
var StepAt = stepAt
