package main

import (
	"strings"
	"testing"
	"time"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		rtt  time.Duration // of the second measurement; 0 when err is set
		err  string        // substring of the error; "" means it parses
	}{
		{"valid", "a,48.85,2.35,1.5\nb,48.85,2.35,2.25\n", 2250 * time.Microsecond, ""},
		{"zero-rtt", "a,48.85,2.35,1\nb,48.85,2.35,0\n", 0, ""},
		{"comments-and-blanks", "# vp,lat,lon,rtt\n\na,48.85,2.35,1\n b , 48.85 , 2.35 , 3 \n", 3 * time.Millisecond, ""},
		{"negative-rtt", "a,48.85,2.35,1\nb,48.85,2.35,-100\n", 0, "line 2:"},
		{"nan-rtt", "a,48.85,2.35,1\nb,48.85,2.35,NaN\n", 0, "line 2:"},
		{"inf-rtt", "a,48.85,2.35,1\nb,48.85,2.35,+Inf\n", 0, "line 2:"},
		{"huge-rtt", "a,48.85,2.35,1\nb,48.85,2.35,1e300\n", 0, "line 2:"},
		{"past-duration-range", "a,48.85,2.35,1\nb,48.85,2.35,9223372036855\n", 0, "line 2:"},
		{"bad-number", "a,48.85,2.35,fast\n", 0, "line 1: bad number"},
		{"bad-latitude", "a,91,2.35,1\n", 0, "line 1:"},
		{"wrong-arity", "a,48.85,2.35\n", 0, "line 1: want vantage,lat,lon,rtt_ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := parse(strings.NewReader(tc.in))
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parse = %v, %v; want error containing %q", ms, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 2 || ms[1].RTT != tc.rtt {
				t.Fatalf("parse = %+v, want 2 measurements, the second at %v", ms, tc.rtt)
			}
			if ms[1].VP != "b" {
				t.Errorf("vantage name %q, want %q (trimmed)", ms[1].VP, "b")
			}
		})
	}
}
