package wire

import (
	"bytes"
	"testing"
)

// FuzzParseDNS hardens the parser against hostile or corrupted messages:
// whatever the bytes, parsing must not panic, and anything that parses and
// re-marshals must re-parse to a message of the same shape.
func FuzzParseDNS(f *testing.F) {
	q, _ := BuildCHAOSQuery(1)
	f.Add(q)
	r, _ := BuildCHAOSResponse(1, "site01.example.net")
	f.Add(r)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAB}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ParseDNS(data)
		if err != nil {
			return
		}
		again, err := msg.Marshal()
		if err != nil {
			// Parsed names can contain characters Marshal rejects only
			// via length rules; a parse-only success is acceptable as
			// long as nothing panicked.
			return
		}
		msg2, err := ParseDNS(again)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(msg2.Questions) != len(msg.Questions) || len(msg2.Answers) != len(msg.Answers) {
			t.Fatal("round trip changed the message shape")
		}
	})
}
