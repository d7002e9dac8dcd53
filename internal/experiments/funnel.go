package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"anycastmap/internal/prober"
	"anycastmap/internal/record"
	"anycastmap/internal/stats"
)

// Fig4Result is the census-magnitude funnel of Fig. 4.
type Fig4Result struct {
	// Measured, at lab scale.
	FullHitlist     int
	PrunedTargets   int
	EchoTargets     int // targets answering at least one VP in census 1
	GreylistHosts   int
	ValidTargets    int // targets with >= 2 echo samples in the combination
	AnycastPrefixes int
	// Scale is the unicast downscale factor for extrapolation.
	Scale float64
}

// Paper magnitudes for Fig. 4 (Secs. 2.1 and 3.1).
const (
	PaperFullHitlist   = 10_616_435
	PaperPruned        = 6_600_000
	PaperResponsive    = 4_400_000
	PaperGreylist      = 150_000
	PaperAnycastIP24   = 1696
	PaperAnycastASes   = 346
	PaperTotalReplicas = 13802
)

// Fig4 reproduces the census funnel.
func (l *Lab) Fig4() Fig4Result {
	valid := 0
	for t := range l.Combined.Targets {
		n := 0
		for v := range l.Combined.VPs {
			if l.Combined.RTTus[v][t] >= 0 {
				n++
				if n >= 2 {
					break
				}
			}
		}
		if n >= 2 {
			valid++
		}
	}
	grey := prober.NewGreylist()
	grey.Merge(l.Black)
	grey.Merge(l.Greylist)
	return Fig4Result{
		FullHitlist:     l.Full.Len(),
		PrunedTargets:   l.Hitlist.Len(),
		EchoTargets:     l.Rounds[0].EchoTargets,
		GreylistHosts:   grey.Len(),
		ValidTargets:    valid,
		AnycastPrefixes: len(l.Findings),
		Scale:           l.ScaleFactor(),
	}
}

// Report renders the funnel next to the paper's magnitudes.
func (r Fig4Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 - census magnitude funnel (scale 1:%.0f, extrapolation in parens)\n", r.Scale)
	row := func(name string, got int, paper int) {
		fmt.Fprintf(&b, "  %-22s %10d  (x%.0f = %11.0f)   paper %11d\n",
			name, got, r.Scale, float64(got)*r.Scale, paper)
	}
	row("hitlist /24s", r.FullHitlist, PaperFullHitlist)
	row("pruned targets", r.PrunedTargets, PaperPruned)
	row("echo targets", r.EchoTargets, PaperResponsive)
	row("greylist hosts", r.GreylistHosts, PaperGreylist)
	fmt.Fprintf(&b, "  %-22s %10d   paper %d (of %d ASes)\n", "anycast /24s (no scaling)", r.AnycastPrefixes, PaperAnycastIP24, PaperAnycastASes)
	return b.String()
}

// Table1Result compares the textual and binary census formats.
type Table1Result struct {
	Samples          int // recorded samples for one VP at lab scale
	BinaryBytesPerVP int64
	TextBytesPerVP   int64
	// Extrapolations to the paper's 6.6M-target, ~300-VP campaign.
	EstBinaryCensusBytes int64
	EstTextCensusBytes   int64
	// Decode throughput drives the analysis-duration gap of Table 1.
	BinaryDecodePerSec float64
	TextDecodePerSec   float64
	EstBinaryParse     time.Duration // parse time for a full paper-scale census
	EstTextParse       time.Duration
}

// Paper values for Table 1.
const (
	PaperBinaryHostMB   = 21
	PaperTextHostMB     = 270
	PaperBinaryCensusGB = 6
	PaperTextCensusGB   = 79
)

// Table1 re-runs one vantage point's census through both record formats
// and measures sizes and decode throughput.
func (l *Lab) Table1() Table1Result {
	vp := l.PL.VPs()[1]
	var bin, txt bytes.Buffer
	bw := record.NewBinaryWriter(&bin)
	cw := record.NewCSVWriter(&txt, vp.Name)
	n := 0
	if _, _, err := prober.Run(l.World, vp, l.Hitlist.Targets(), l.Black, prober.Config{Seed: l.Config.Seed, Round: 1},
		func(s record.Sample) {
			n++
			if err := bw.Write(s); err != nil {
				panic(err)
			}
			if err := cw.Write(s); err != nil {
				panic(err)
			}
		}); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	bw.Flush()
	cw.Flush()

	res := Table1Result{
		Samples:          n,
		BinaryBytesPerVP: int64(bin.Len()),
		TextBytesPerVP:   int64(txt.Len()),
	}
	// Extrapolate to the paper's per-VP sample volume (4.4M replies) and
	// ~300 VPs.
	perSampleBin := float64(bin.Len()) / float64(n)
	perSampleTxt := float64(txt.Len()) / float64(n)
	res.EstBinaryCensusBytes = int64(perSampleBin * 4_400_000 * 300)
	res.EstTextCensusBytes = int64(perSampleTxt * 4_400_000 * 300)

	res.BinaryDecodePerSec = decodeRate(record.NewBinaryReader(bytes.NewReader(bin.Bytes())), n)
	res.TextDecodePerSec = decodeRate(record.NewCSVReader(bytes.NewReader(txt.Bytes())), n)
	if res.BinaryDecodePerSec > 0 {
		res.EstBinaryParse = time.Duration(4_400_000 * 300 / res.BinaryDecodePerSec * float64(time.Second))
	}
	if res.TextDecodePerSec > 0 {
		res.EstTextParse = time.Duration(4_400_000 * 300 / res.TextDecodePerSec * float64(time.Second))
	}
	return res
}

func decodeRate(r record.Reader, n int) float64 {
	start := time.Now()
	count := 0
	for {
		if _, err := r.Read(); err != nil {
			if err == io.EOF {
				break
			}
			panic(err)
		}
		count++
	}
	el := time.Since(start)
	if el <= 0 || count == 0 {
		return 0
	}
	return float64(count) / el.Seconds()
}

// Report renders the format comparison.
func (r Table1Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 - textual vs binary census format (one VP, %d samples)\n", r.Samples)
	fmt.Fprintf(&b, "  %-28s %12s %12s\n", "", "binary", "textual")
	fmt.Fprintf(&b, "  %-28s %12d %12d\n", "bytes per VP (lab scale)", r.BinaryBytesPerVP, r.TextBytesPerVP)
	fmt.Fprintf(&b, "  %-28s %9.1f GB %9.1f GB   paper: %d GB vs %d GB\n", "est. census at paper scale",
		float64(r.EstBinaryCensusBytes)/1e9, float64(r.EstTextCensusBytes)/1e9, PaperBinaryCensusGB, PaperTextCensusGB)
	fmt.Fprintf(&b, "  %-28s %10.1fM/s %10.2fM/s\n", "decode throughput", r.BinaryDecodePerSec/1e6, r.TextDecodePerSec/1e6)
	fmt.Fprintf(&b, "  %-28s %12v %12v   paper: 3 h vs >3 days\n", "est. parse, paper scale", r.EstBinaryParse.Round(time.Second), r.EstTextParse.Round(time.Second))
	fmt.Fprintf(&b, "  size ratio %.1fx (paper ~13x), parse ratio %.1fx\n",
		float64(r.TextBytesPerVP)/float64(r.BinaryBytesPerVP),
		float64(r.EstTextParse)/float64(max(1, int64(r.EstBinaryParse))))
	return b.String()
}

// Fig8Result is the per-VP completion-time distribution.
type Fig8Result struct {
	// HoursAtPaperScale is each VP's completion extrapolated to the 6.6M
	// target list at 1k probes/s.
	HoursAtPaperScale  []float64
	Within2h, Within5h float64 // fractions
	CDF                []stats.Point
}

// Fig8 reproduces the completion-time CDF.
func (l *Lab) Fig8() Fig8Result {
	scaleToPaper := 6_600_000.0 / float64(l.Hitlist.Len())
	var hours []float64
	for _, r := range l.Rounds {
		for _, d := range r.Completion {
			hours = append(hours, d.Hours()*scaleToPaper)
		}
	}
	return Fig8Result{
		HoursAtPaperScale: hours,
		Within2h:          stats.FractionAtMost(hours, 2),
		Within5h:          stats.FractionAtMost(hours, 5),
		CDF:               stats.ECDF(hours),
	}
}

// Report renders the completion-time summary.
func (r Fig8Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 - per-VP completion time (extrapolated to 6.6M targets at 1k pps)\n")
	fmt.Fprintf(&b, "  within 2h: %.0f%% (paper ~40%%)   within 5h: %.0f%% (paper ~95%%)\n",
		100*r.Within2h, 100*r.Within5h)
	mn, mx := stats.MinMax(r.HoursAtPaperScale)
	fmt.Fprintf(&b, "  range %.1fh .. %.1fh over %d VP-runs (paper x-axis 1..16h)\n", mn, mx, len(r.HoursAtPaperScale))
	return b.String()
}

// CoverageResult is the Sec. 3.1 hitlist-coverage cross-check.
type CoverageResult struct {
	Routed24s      int
	Covered24s     int
	Fraction       float64
	AnycastSlash24 float64 // fraction of anycast /24s announced exactly as /24
}

// Coverage cross-checks hitlist coverage and announcement granularity.
func (l *Lab) Coverage() CoverageResult {
	covered, total := coverageOf(l)
	return CoverageResult{
		Routed24s:      total,
		Covered24s:     covered,
		Fraction:       float64(covered) / float64(total),
		AnycastSlash24: l.Table.FractionSlash24(l.World.AnycastPrefixes()),
	}
}

func coverageOf(l *Lab) (int, int) {
	covered := 0
	for _, rt := range l.Table.Routes() {
		if l.Full.Covers(rt.Prefix) {
			covered++
		}
	}
	return covered, l.Table.Len()
}

// Report renders the coverage check.
func (r CoverageResult) Report() string {
	return fmt.Sprintf("Sec. 3.1 - coverage: %d of %d routed /24s have a hitlist representative (%.4f%%, paper 99.99%%)\n"+
		"  anycast announcements that are exactly /24: %.0f%% (paper [35]: 88%%)\n",
		r.Covered24s, r.Routed24s, 100*r.Fraction, 100*r.AnycastSlash24)
}
