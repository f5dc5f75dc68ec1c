package cube

// Hooks for the external cube_test package, whose tests need inputs from
// internal/workload (which imports cube).
var (
	ForceParallel = forceParallel
	FuzzyInput    = fuzzyInput
)
