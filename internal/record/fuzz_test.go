package record

import (
	"bytes"
	"testing"
)

// FuzzBinaryReader feeds arbitrary bytes to the binary decoder: it must
// never panic, and every decoded sample must re-encode to the same bytes.
func FuzzBinaryReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(Sample{Target: 0x01020304, TimestampMs: 42, Kind: 1, RTT: 1000000})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBinaryReader(bytes.NewReader(data))
		for {
			s, err := r.Read()
			if err != nil {
				return
			}
			var out bytes.Buffer
			w := NewBinaryWriter(&out)
			if err := w.Write(s); err != nil {
				t.Fatalf("re-encode of decoded sample failed: %v", err)
			}
			w.Flush()
			s2, err := NewBinaryReader(&out).Read()
			if err != nil || s2 != s {
				t.Fatalf("binary round trip diverged: %+v vs %+v (%v)", s, s2, err)
			}
		}
	})
}

// FuzzCSVReader hardens the textual parser.
func FuzzCSVReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf, "vp1")
	w.Write(Sample{Target: 0x01020304, TimestampMs: 42, Kind: 1, RTT: 1000000})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("a,b,c\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewCSVReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			if _, err := r.Read(); err != nil {
				return
			}
		}
	})
}
