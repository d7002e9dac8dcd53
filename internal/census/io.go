package census

import (
	"bytes"
	"fmt"
	"io"
)

// The paper's workflow uploads each vantage point's measurements to a
// central repository (Fig. 1); SaveRun/LoadRun are that repository's
// storage format: the columnar varint encoding of iov2.go —
// byte-deterministic and parallel on both sides — behind the magic
// "ACMR2\n". It is the only run format: archives of the gob+DEFLATE
// generation before it are refused by their leading bytes.

// SaveRun writes the census run to w in the v2 columnar format. The
// output is byte-deterministic: saving the same run twice yields
// identical bytes.
func SaveRun(w io.Writer, r *Run) error {
	return saveRunV2(w, r)
}

// LoadRun reads a census run saved by SaveRun and validates its shape.
// Input that does not start with the v2 magic, short input included, is
// refused with an error naming the magic.
func LoadRun(r io.Reader) (*Run, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("census: read run: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(runMagicV2)) {
		return nil, fmt.Errorf("census: not a census run: leading bytes %q, want magic %q", data[:min(len(data), len(runMagicV2))], runMagicV2)
	}
	return loadRunV2(data[len(runMagicV2):])
}
