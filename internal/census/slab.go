package census

// slab.go — the flat-slab arena behind the combined matrix.
//
// At paper scale the combined matrix is ~6.6M targets × hundreds of
// vantage points. Allocating each row separately leaves the heap holding
// hundreds of multi-megabyte objects: every GC cycle scans the [][]int32
// spine and each row header, and the allocator fragments around the
// odd-sized rows. The arena instead carves rows out of a handful of large
// contiguous []int32 blocks — pointer-free memory the collector never
// scans past the block header — so a full paper-scale matrix costs a few
// dozen allocations total instead of one per VP row.
//
// Rows stay ordinary []int32 slices (three-word headers into a block), so
// every consumer of Combined.RTTus — the fold, the analyzer, the
// experiments, the codecs — is untouched; the batch Combine, which
// allocates per row, is the layout TestCensusDeterminism compares against.

const (
	// slabBlockBytes caps one arena block. Blocks are exact-fit below the
	// cap (a round registering 24 fresh VPs over 1M targets allocates one
	// 96 MB block, not a rounded-up power of two), so the cap only splits
	// genuinely huge registrations: 261 VPs × 6.6M targets lands in ~27
	// blocks instead of one 6.9 GB allocation the OS may refuse to place.
	slabBlockBytes = 256 << 20
)

// slabArena carves fixed-width []int32 rows from large contiguous blocks.
// The zero value is not usable; construct with newSlabArena. Not safe for
// concurrent use — the campaign carves rows serially while registering a
// round's vantage points (BeginRound), before any fold starts.
type slabArena struct {
	rowLen int
	cur    []int32 // unused tail of the newest block
	blocks int
	rows   int
}

func newSlabArena(rowLen int) *slabArena {
	return &slabArena{rowLen: rowLen}
}

// alloc carves n fresh rows, each rowLen cells, zero-valued. Rows from one
// call are packed back to back; a call larger than the block cap splits
// into exact-fit blocks of at most slabBlockBytes each.
func (a *slabArena) alloc(n int) [][]int32 {
	rows := make([][]int32, 0, n)
	if a.rowLen == 0 {
		// Zero-target campaigns still register VPs; their rows are empty
		// but non-nil, matching make([]int32, 0).
		for i := 0; i < n; i++ {
			rows = append(rows, make([]int32, 0))
		}
		return rows
	}
	for len(rows) < n {
		if len(a.cur) < a.rowLen {
			bRows := n - len(rows)
			if max := slabBlockBytes / (4 * a.rowLen); bRows > max && max >= 1 {
				bRows = max
			}
			a.cur = make([]int32, bRows*a.rowLen)
			a.blocks++
		}
		rows = append(rows, a.cur[:a.rowLen:a.rowLen])
		a.cur = a.cur[a.rowLen:]
	}
	a.rows += n
	return rows
}

// noSampleChunk is a pre-filled pattern source for fillNoSample: copying
// from it is a memmove, which beats a per-element store loop (Go only
// lowers zero fills to memclr, not arbitrary patterns).
var noSampleChunk = func() []int32 {
	c := make([]int32, 8192)
	for i := range c {
		c[i] = noSample
	}
	return c
}()

// fillNoSample sets every cell of row to the noSample sentinel.
func fillNoSample(row []int32) {
	for len(row) > 0 {
		row = row[copy(row, noSampleChunk):]
	}
}
