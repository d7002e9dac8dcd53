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

// unicastPrefixes lists the world's unicast /24s in unicast index order,
// which is slot order.
func (w *World) unicastPrefixes() []Prefix24 {
	out := make([]Prefix24, 0, len(w.unicast))
	for slot, i := range w.slots {
		if i < 0 {
			out = append(out, basePrefix+Prefix24(slot))
		}
	}
	return out
}
