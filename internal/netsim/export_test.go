package netsim

// newUncached builds the configured world without its session table, so
// every probe takes the uncached reference path: World.session returns
// nil and PlanSpan builds plans that hold no slabs. The probe-path tests
// hold the cached world's replies to this one's, bit for bit.
func newUncached(cfg Config) *World {
	w := New(cfg)
	w.sessions = nil
	return w
}
