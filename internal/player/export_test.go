package player

// The external tests, which may import the packages that build on this
// one (core, experiments), run sessions the ways the internal ones do.
var (
	RunRecycled = runRecycled
	StartOn     = startOn
)
