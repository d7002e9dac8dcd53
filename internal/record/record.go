// Package record implements the census measurement-record formats of
// Table 1. The first census was logged in a verbose textual format (270 MB
// per vantage point, 79 GB per census, more than 3 days to analyze); the
// re-engineered binary format strips each sample down to a timestamp, a
// delay and an ICMP flag that encodes the greylistable return codes in the
// delay's sign (21 MB per node, 6 GB per census, 3 hours to analyze).
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"anycastmap/internal/netsim"
)

// Sample is one measurement outcome worth recording. Timeouts are not
// recorded: absence of a record is the timeout signal.
type Sample struct {
	Target netsim.IP
	// TimestampMs is milliseconds since the start of the census run.
	TimestampMs uint32
	Kind        netsim.ReplyKind
	RTT         time.Duration
}

// Writer writes a stream of samples.
type Writer interface {
	Write(Sample) error
	// Flush drains any buffering; it must be called before the
	// underlying writer is used.
	Flush() error
}

// Reader iterates a stream of samples.
type Reader interface {
	// Read returns the next sample, or io.EOF at the end of the stream.
	Read() (Sample, error)
}

// binary layout: 3 little-endian 32-bit words per sample.
//
//	word0: target address
//	word1: timestamp (ms since census start)
//	word2: delay in µs, positive for echo replies; negative for
//	       greylistable ICMP errors, with the return code packed in the
//	       top bits of the magnitude: -(code<<24 | delayUs).
const binaryRecordSize = 12

// greylist code points used in the binary encoding.
const (
	codeAdminFiltered  = 1 // ICMP type 3 code 13
	codeHostProhibited = 2 // code 10
	codeNetProhibited  = 3 // code 9
)

const maxDelayUs = 1<<24 - 1

// BinaryWriter encodes samples in the stripped-down binary format.
type BinaryWriter struct {
	w   *bufio.Writer
	buf [binaryRecordSize]byte
}

// NewBinaryWriter returns a binary sample writer.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// ErrUnrecordable is returned for samples the binary format cannot carry.
var ErrUnrecordable = errors.New("record: sample kind not recordable")

// Write encodes one sample.
func (bw *BinaryWriter) Write(s Sample) error {
	us := s.RTT.Microseconds()
	if us < 0 {
		us = 0
	}
	// An echo delay has the whole positive word, as the reader accepts it;
	// an error's shares the word with its code.
	if s.Kind == netsim.ReplyEcho {
		us = min(us, math.MaxInt32)
	} else {
		us = min(us, maxDelayUs)
	}
	var word2 int32
	switch s.Kind {
	case netsim.ReplyEcho:
		word2 = int32(us)
	case netsim.ReplyAdminFiltered:
		word2 = -int32(codeAdminFiltered<<24 | us)
	case netsim.ReplyHostProhibited:
		word2 = -int32(codeHostProhibited<<24 | us)
	case netsim.ReplyNetProhibited:
		word2 = -int32(codeNetProhibited<<24 | us)
	default:
		return fmt.Errorf("%w: %v", ErrUnrecordable, s.Kind)
	}
	binary.LittleEndian.PutUint32(bw.buf[0:4], uint32(s.Target))
	binary.LittleEndian.PutUint32(bw.buf[4:8], s.TimestampMs)
	binary.LittleEndian.PutUint32(bw.buf[8:12], uint32(word2))
	_, err := bw.w.Write(bw.buf[:])
	return err
}

// Flush drains the write buffer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// BinaryReader decodes the binary format.
type BinaryReader struct {
	r   *bufio.Reader
	buf [binaryRecordSize]byte
}

// NewBinaryReader returns a binary sample reader.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Read returns the next sample or io.EOF.
func (br *BinaryReader) Read() (Sample, error) {
	if _, err := io.ReadFull(br.r, br.buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Sample{}, fmt.Errorf("record: truncated binary record: %w", err)
		}
		return Sample{}, err
	}
	s := Sample{
		Target:      netsim.IP(binary.LittleEndian.Uint32(br.buf[0:4])),
		TimestampMs: binary.LittleEndian.Uint32(br.buf[4:8]),
	}
	word2 := int32(binary.LittleEndian.Uint32(br.buf[8:12]))
	if word2 >= 0 {
		s.Kind = netsim.ReplyEcho
		s.RTT = time.Duration(word2) * time.Microsecond
		return s, nil
	}
	mag := uint32(-int64(word2))
	code := mag >> 24
	s.RTT = time.Duration(mag&maxDelayUs) * time.Microsecond
	switch code {
	case codeAdminFiltered:
		s.Kind = netsim.ReplyAdminFiltered
	case codeHostProhibited:
		s.Kind = netsim.ReplyHostProhibited
	case codeNetProhibited:
		s.Kind = netsim.ReplyNetProhibited
	default:
		return Sample{}, fmt.Errorf("record: invalid greylist code %d", code)
	}
	return s, nil
}

// CSVWriter encodes samples in the verbose textual format of Census-0:
// vantage point, target, absolute timestamp, sequence number, TTL-style
// metadata and a human-readable reply kind. It exists to reproduce the
// Table 1 comparison.
type CSVWriter struct {
	w   *bufio.Writer
	vp  string
	seq uint64
}

// NewCSVWriter returns a textual sample writer attributing samples to the
// named vantage point.
func NewCSVWriter(w io.Writer, vp string) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w), vp: vp}
}

// csvEpoch anchors the absolute timestamps of the textual format to the
// paper's census period (March 2015).
var csvEpoch = time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)

// Write encodes one sample as a CSV line.
func (cw *CSVWriter) Write(s Sample) error {
	cw.seq++
	abs := csvEpoch.Add(time.Duration(s.TimestampMs) * time.Millisecond)
	// vp,seq,target,iso-timestamp,rtt_ms,kind,icmp_type,icmp_code
	icmpType, icmpCode := icmpOf(s.Kind)
	_, err := fmt.Fprintf(cw.w, "%s,%d,%s,%s,%.3f,%s,%d,%d\n",
		cw.vp, cw.seq, s.Target, abs.Format(time.RFC3339Nano),
		float64(s.RTT)/float64(time.Millisecond), s.Kind, icmpType, icmpCode)
	return err
}

// Flush drains the write buffer.
func (cw *CSVWriter) Flush() error { return cw.w.Flush() }

func icmpOf(k netsim.ReplyKind) (int, int) {
	switch k {
	case netsim.ReplyEcho:
		return 0, 0
	case netsim.ReplyAdminFiltered:
		return 3, 13
	case netsim.ReplyHostProhibited:
		return 3, 10
	case netsim.ReplyNetProhibited:
		return 3, 9
	}
	return -1, -1
}

// CSVReader decodes the textual format.
type CSVReader struct {
	s *bufio.Scanner
}

// NewCSVReader returns a textual sample reader.
func NewCSVReader(r io.Reader) *CSVReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &CSVReader{s: sc}
}

// Read returns the next sample or io.EOF.
func (cr *CSVReader) Read() (Sample, error) {
	if !cr.s.Scan() {
		if err := cr.s.Err(); err != nil {
			return Sample{}, err
		}
		return Sample{}, io.EOF
	}
	fields := strings.Split(cr.s.Text(), ",")
	if len(fields) != 8 {
		return Sample{}, fmt.Errorf("record: bad CSV line %q", cr.s.Text())
	}
	target, err := netsim.ParseIP(fields[2])
	if err != nil {
		return Sample{}, err
	}
	abs, err := time.Parse(time.RFC3339Nano, fields[3])
	if err != nil {
		return Sample{}, fmt.Errorf("record: bad timestamp: %w", err)
	}
	rttMs, err := strconv.ParseFloat(fields[4], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("record: bad rtt: %w", err)
	}
	icmpType, err1 := strconv.Atoi(fields[6])
	icmpCode, err2 := strconv.Atoi(fields[7])
	if err1 != nil || err2 != nil {
		return Sample{}, fmt.Errorf("record: bad icmp fields in %q", cr.s.Text())
	}
	kind := netsim.ReplyEcho
	if icmpType == 3 {
		switch icmpCode {
		case 13:
			kind = netsim.ReplyAdminFiltered
		case 10:
			kind = netsim.ReplyHostProhibited
		case 9:
			kind = netsim.ReplyNetProhibited
		default:
			return Sample{}, fmt.Errorf("record: unknown ICMP code %d", icmpCode)
		}
	}
	return Sample{
		Target:      target,
		TimestampMs: uint32(abs.Sub(csvEpoch) / time.Millisecond),
		Kind:        kind,
		RTT:         time.Duration(rttMs * float64(time.Millisecond)),
	}, nil
}

// BinarySize returns the encoded size of n samples in the binary format.
func BinarySize(n int) int64 { return int64(n) * binaryRecordSize }
