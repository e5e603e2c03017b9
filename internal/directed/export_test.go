package directed

// Test fixtures shared with the external directed_test package.
var (
	RandomJoint  = randomJoint
	CycleDigraph = cycleDigraph
)
