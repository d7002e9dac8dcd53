package census

import (
	"bufio"
	"compress/flate"
	"encoding/gob"
	"fmt"
	"io"

	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
)

// The paper's workflow uploads each vantage point's measurements to a
// central repository (Fig. 1); SaveRun/LoadRun are that repository's
// storage format. Generation 1 was gob under DEFLATE; generation 2
// (iov2.go) is the columnar varint format — byte-deterministic, parallel,
// and several times faster on both sides. SaveRun writes v2; LoadRun
// recognizes both by the leading magic, so archives saved by older
// builds keep loading (testdata/run-gen1.gob.flate is one; the gen-1
// writer is gone).

// runDisk is the persisted shape of a legacy (gob+flate) census run.
type runDisk struct {
	Round    uint64
	VPs      []platform.VP
	Targets  []netsim.IP
	RTTus    [][]int32
	Stats    []prober.Stats
	Greylist map[netsim.IP]netsim.ReplyKind
	Health   RunHealth
}

// SaveRun writes the census run to w in the v2 columnar format. The
// output is byte-deterministic: saving the same run twice yields
// identical bytes.
func SaveRun(w io.Writer, r *Run) error {
	return saveRunV2(w, r)
}

// LoadRun reads a census run saved by SaveRun — either format, v2
// columnar or legacy gob+flate, recognized by the leading bytes — and
// validates its shape.
func LoadRun(r io.Reader) (*Run, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(runMagicV2))
	if err == nil && string(head) == runMagicV2 {
		br.Discard(len(runMagicV2))
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("census: read v2 run: %w", err)
		}
		return loadRunV2(data)
	}
	return loadRunLegacy(br)
}

// loadRunLegacy decodes the generation-1 gob+flate encoding.
func loadRunLegacy(r io.Reader) (*Run, error) {
	fr := flate.NewReader(r)
	defer fr.Close()
	var disk runDisk
	if err := gob.NewDecoder(fr).Decode(&disk); err != nil {
		return nil, fmt.Errorf("census: decode run: %w", err)
	}
	if len(disk.RTTus) != len(disk.VPs) {
		return nil, fmt.Errorf("census: run has %d matrix rows for %d VPs", len(disk.RTTus), len(disk.VPs))
	}
	for i, row := range disk.RTTus {
		if len(row) != len(disk.Targets) {
			return nil, fmt.Errorf("census: row %d has %d cells for %d targets", i, len(row), len(disk.Targets))
		}
	}
	return &Run{
		Round:    disk.Round,
		VPs:      disk.VPs,
		Targets:  disk.Targets,
		RTTus:    disk.RTTus,
		Stats:    disk.Stats,
		Greylist: prober.FromSnapshot(disk.Greylist),
		Health:   disk.Health,
	}, nil
}
