package cluster

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello census")
	b := appendFrame(nil, frameLease, payload)
	typ, got, err := readFrame(bytes.NewReader(b), 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameLease || !bytes.Equal(got, payload) {
		t.Fatalf("round-trip: type %d payload %q", typ, got)
	}
	// The type byte sits at offset 4 of the single buffer a frame is
	// written from: the churn harness (killAfter) keys on it.
	if b[4] != frameLease {
		t.Fatalf("type byte not at offset 4: %v", b[:5])
	}
	// Empty payloads (heartbeat, shutdown) are legal.
	typ, got, err = readFrame(bytes.NewReader(appendFrame(nil, frameHeartbeat)), 0)
	if err != nil || typ != frameHeartbeat || len(got) != 0 {
		t.Fatalf("empty payload: %d %q %v", typ, got, err)
	}
	// Parts land back to back, and a frame appended to a reused buffer
	// is the frame alone: what came before in dst stays before it.
	two := appendFrame(b[:0], frameRows, []byte("hello "), nil, []byte("census"))
	if typ, got, err = readFrame(bytes.NewReader(two), 0); err != nil || typ != frameRows || !bytes.Equal(got, payload) {
		t.Fatalf("parts: %d %q %v", typ, got, err)
	}
	stream := appendFrame(appendFrame(nil, frameHeartbeat), frameFail, payload)
	r := bytes.NewReader(stream)
	if typ, _, err = readFrame(r, 0); err != nil || typ != frameHeartbeat {
		t.Fatalf("first of two: %d %v", typ, err)
	}
	if typ, got, err = readFrame(r, 0); err != nil || typ != frameFail || !bytes.Equal(got, payload) || r.Len() != 0 {
		t.Fatalf("second of two: %d %q %v", typ, got, err)
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	// A declared length of zero carries no type byte.
	zero := make([]byte, 4)
	if _, _, err := readFrame(bytes.NewReader(zero), 0); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// A giant declared length must be rejected before allocation, not
	// trusted into make().
	giant := make([]byte, 4)
	binary.BigEndian.PutUint32(giant, 0xFFFFFFFF)
	if _, _, err := readFrame(bytes.NewReader(giant), 0); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("giant frame: %v", err)
	}
	// The configured cap applies too.
	big := appendFrame(nil, frameRows, make([]byte, 1024))
	if _, _, err := readFrame(bytes.NewReader(big), 128); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap frame: %v", err)
	}
	// Truncated header and truncated body both fail cleanly.
	if _, _, err := readFrame(bytes.NewReader(big[:2]), 0); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, _, err := readFrame(bytes.NewReader(big[:20]), 0); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestReadMagic(t *testing.T) {
	if err := readMagic(strings.NewReader(streamMagic + "rest")); err != nil {
		t.Fatal(err)
	}
	if err := readMagic(strings.NewReader("HTTP/1.1 400\r\n")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if err := readMagic(strings.NewReader("ACM")); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestRowsPayloadRoundTrip(t *testing.T) {
	shard := []byte{1, 2, 3}
	const leaseID = 1<<40 + 7
	var idBuf [binary.MaxVarintLen64]byte
	b := appendFrame(nil, frameRows, binary.AppendUvarint(idBuf[:0], leaseID), shard)
	typ, payload, err := readFrame(bytes.NewReader(b), 0)
	if err != nil || typ != frameRows {
		t.Fatalf("rows frame: type %d err %v", typ, err)
	}
	id, rest, err := splitRowsPayload(payload)
	if err != nil || id != leaseID || !bytes.Equal(rest, shard) {
		t.Fatalf("round-trip: id=%d rest=%v err=%v", id, rest, err)
	}
	if _, _, err := splitRowsPayload(nil); err == nil {
		t.Fatal("empty rows payload accepted")
	}
}
