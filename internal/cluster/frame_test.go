package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"anycastmap/internal/census"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello census")
	b := appendFrame(nil, frameLease, payload)
	typ, got, err := newFrameReader(bytes.NewReader(b), 0).next()
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
	// An empty payload (shutdown) is legal.
	typ, got, err = newFrameReader(bytes.NewReader(appendFrame(nil, frameShutdown)), 0).next()
	if err != nil || typ != frameShutdown || len(got) != 0 {
		t.Fatalf("empty payload: %d %q %v", typ, got, err)
	}
	// Parts land back to back, and a frame appended to a reused buffer
	// is the frame alone: what came before in dst stays before it.
	two := appendFrame(b[:0], frameRows, []byte("hello "), nil, []byte("census"))
	if typ, got, err = newFrameReader(bytes.NewReader(two), 0).next(); err != nil || typ != frameRows || !bytes.Equal(got, payload) {
		t.Fatalf("parts: %d %q %v", typ, got, err)
	}
	stream := appendFrame(appendFrame(nil, frameShutdown), frameFail, payload)
	r := bytes.NewReader(stream)
	fr := newFrameReader(r, 0)
	if typ, _, err = fr.next(); err != nil || typ != frameShutdown {
		t.Fatalf("first of two: %d %v", typ, err)
	}
	if typ, got, err = fr.next(); err != nil || typ != frameFail || !bytes.Equal(got, payload) || r.Len() != 0 {
		t.Fatalf("second of two: %d %q %v", typ, got, err)
	}
}

func TestReadFrameRejectsHostileLengths(t *testing.T) {
	// A declared length of zero carries no type byte.
	zero := make([]byte, 4)
	if _, _, err := newFrameReader(bytes.NewReader(zero), 0).next(); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// A giant declared length must be rejected before allocation, not
	// trusted into make().
	giant := make([]byte, 4)
	binary.BigEndian.PutUint32(giant, 0xFFFFFFFF)
	if _, _, err := newFrameReader(bytes.NewReader(giant), 0).next(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("giant frame: %v", err)
	}
	// The configured cap applies too.
	big := appendFrame(nil, frameRows, make([]byte, 1024))
	if _, _, err := newFrameReader(bytes.NewReader(big), 128).next(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap frame: %v", err)
	}
	// Truncated header and truncated body both fail cleanly.
	if _, _, err := newFrameReader(bytes.NewReader(big[:2]), 0).next(); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, _, err := newFrameReader(bytes.NewReader(big[:20]), 0).next(); err == nil {
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
	unit := unitRows{Slot: 7, ShardRows: census.ShardRows{
		RTTus: []int32{census.NoSample, 1500, census.NoSample},
		Stats: census.ShardStats{Sent: 3, Echo: 1, Timeouts: 2, Completion: 1500},
	}}
	const leaseID = 1<<40 + 7
	b := appendRowsFrame(nil, leaseID, unit, unit)
	typ, payload, err := newFrameReader(bytes.NewReader(b), 0).next()
	if err != nil || typ != frameRows {
		t.Fatalf("rows frame: type %d err %v", typ, err)
	}
	three := func(int) (int, bool) { return 3, true }
	id, units, err := decodeRows(payload, three)
	if err != nil || id != leaseID || len(units) != 2 || units[1].Slot != 7 || !slices.Equal(units[1].RTTus, unit.RTTus) || units[1].Stats != unit.Stats {
		t.Fatalf("round-trip: id=%d units=%+v err=%v", id, units, err)
	}
	// No lease ID, no unit, a trailing byte, a truncated unit, a slot the
	// lease does not hold and a row read at a width that cannot hold it
	// are all refused: at width 1 the sample falls outside the row, at 16 the
	// encoder would have picked the gap mode.
	idOnly := binary.AppendUvarint(nil, leaseID)
	for name, p := range map[string][]byte{
		"empty":          nil,
		"no unit":        idOnly,
		"trailing byte":  append(bytes.Clone(payload), 0),
		"truncated unit": payload[:len(payload)-1],
	} {
		if _, _, err := decodeRows(p, three); err == nil {
			t.Fatalf("rows payload %q accepted", name)
		}
	}
	if _, _, err := decodeRows(payload, func(int) (int, bool) { return 0, false }); err == nil {
		t.Fatal("rows for a slot outside the lease accepted")
	}
	for _, width := range []int{1, 16} {
		if _, _, err := decodeRows(payload, func(int) (int, bool) { return width, true }); err == nil {
			t.Fatalf("3-cell rows read at width %d", width)
		}
	}
}

// countingConn counts the reads that reach the transport.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads++
	return c.Conn.Read(b)
}

// A frame that fits the reader's buffer costs one read of the transport,
// header and body together: on net.Pipe a read is a hand-off between
// goroutines, on TCP a syscall.
func TestFrameReaderOneReadPerFrame(t *testing.T) {
	w, r := net.Pipe()
	defer r.Close()
	l := sampleLease()
	frames := [][]byte{
		appendFrame(nil, frameLease, appendLease(nil, &l)),
		appendFrame(nil, frameShutdown),
		appendFrame(nil, frameRows, make([]byte, 3000)),
	}
	go func() {
		defer w.Close()
		for _, f := range frames {
			if _, err := w.Write(f); err != nil {
				return
			}
		}
	}()
	cr := &countingConn{Conn: r}
	fr := newFrameReader(cr, 0)
	for i, f := range frames {
		typ, payload, err := fr.next()
		if err != nil || typ != f[4] || !bytes.Equal(payload, f[5:]) {
			t.Fatalf("frame %d: type %d, %d-byte payload, %v", i, typ, len(payload), err)
		}
		if cr.reads != i+1 {
			t.Fatalf("%d frames took %d reads of the transport", i+1, cr.reads)
		}
	}
}

// The body buffer is reused for frames up to frameBufKeep and not kept
// for a larger one, and the cap is checked before a buffer is made.
func TestFrameReaderBuffer(t *testing.T) {
	small := appendFrame(nil, frameRows, make([]byte, 100))
	big := appendFrame(nil, frameWelcome, make([]byte, frameBufKeep))
	var stream []byte
	for _, f := range [][]byte{small, small, big, small} {
		stream = append(stream, f...)
	}
	fr := newFrameReader(bytes.NewReader(stream), 0)
	var first []byte
	for i := 0; i < 4; i++ {
		_, payload, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			first = payload
		case 1, 3:
			if &payload[0] != &first[0] {
				t.Fatalf("frame %d did not reuse the body buffer", i)
			}
		case 2:
			if cap(fr.body) > frameBufKeep {
				t.Fatalf("reader kept a %d-byte body buffer", cap(fr.body))
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := newFrameReader(bytes.NewReader(binary.BigEndian.AppendUint32(nil, DefaultMaxFrame+1)), 0).next()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap frame: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing an over-cap frame allocated %d bytes", grew)
	}
}

// unitRows is one unit of a rows frame: its slot and its result.
type unitRows struct {
	Slot int
	census.ShardRows
}

// appendRowsFrame appends the rows frame reporting units of lease id, as
// the agent builds it a unit at a time.
func appendRowsFrame(dst []byte, id uint64, units ...unitRows) []byte {
	start := len(dst)
	frame := beginRowsFrame(dst, id)
	for i := range units {
		frame = appendRowsUnit(frame, units[i].Slot, &units[i].ShardRows)
	}
	return endRowsFrame(frame, start)
}

// decodeRows reads a rows payload as the coordinator does: the lease ID,
// then units, each read at the width width gives its slot; false means the
// lease holds no such slot. At least one unit must be present.
func decodeRows(payload []byte, width func(slot int) (int, bool)) (uint64, []unitRows, error) {
	r := wireReader{b: payload}
	id := r.uvarint()
	var units []unitRows
	for !r.bad && (len(units) == 0 || len(r.b) > 0) {
		u := unitRows{Slot: r.int()}
		if r.bad {
			break
		}
		w, ok := width(u.Slot)
		if !ok {
			return 0, nil, fmt.Errorf("cluster: rows name slot %d outside the lease", u.Slot)
		}
		if err := r.rowsUnit(&u.ShardRows, w); err != nil {
			return 0, nil, err
		}
		units = append(units, u)
	}
	if err := r.finish("rows"); err != nil {
		return 0, nil, err
	}
	return id, units, nil
}
