package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mainArgsEnv, when set, makes the test binary the anycastd command
// itself, run with these space-separated arguments: how a test sees the
// command's exit status and log.
const mainArgsEnv = "ANYCASTD_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"anycastd"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("anycastd", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A bound no flag can mean is refused before anything is served: exit 1,
// not a daemon that runs (a minute's timeout fails the case), with a first
// log line naming the flag. A negative -max-inflight used to serve with
// the default 256, and a negative -dns-listeners went unnoticed without
// -dns.
func TestRefusesFlagValues(t *testing.T) {
	for _, bad := range []string{"-max-inflight -1", "-dns-listeners -1"} {
		snap := filepath.Join(t.TempDir(), "map.snap")
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"=-addr 127.0.0.1:0 -snapshot-file "+snap+" "+bad)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("anycastd %s: %v, want exit status 1; log:\n%s", bad, err, stderr.String())
			continue
		}
		want := strings.TrimPrefix(strings.Fields(bad)[0], "-") + ": "
		if first, _, _ := strings.Cut(stderr.String(), "\n"); !strings.HasPrefix(first, want) {
			t.Errorf("anycastd %s: refused without naming the flag: %q", bad, first)
		}
		if strings.Contains(stderr.String(), "panic") {
			t.Errorf("anycastd %s: panicked:\n%s", bad, stderr.String())
		}
	}
}
