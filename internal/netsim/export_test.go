package netsim

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
