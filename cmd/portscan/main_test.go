package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv, when set, makes the test binary the portscan command
// itself, run with these space-separated arguments.
const mainArgsEnv = "PORTSCAN_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"portscan"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("portscan", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A negative -show is refused by name before the world is built.
func TestRefusesNegativeShow(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"=-as EDGECAST,US -show -1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("portscan -show -1: %v, want exit status 1; log:\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "show: ") || strings.Contains(stderr.String(), "scanning") || stdout.Len() != 0 {
		t.Errorf("portscan -show -1: stdout %q, log %q; want only a refusal naming -show", stdout.String(), stderr.String())
	}
}
