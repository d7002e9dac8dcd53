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

// mainArgsEnv, when set, makes the test binary the experiments command
// itself, run with these space-separated arguments.
const mainArgsEnv = "EXPERIMENTS_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// 0 keeps the default lab's size and round count, and the lab config says
// so; a negative value or an oversized background is refused by name.
func TestLabConfig(t *testing.T) {
	for _, c := range []struct {
		unicast, censuses int
		wantUnicast       int
		wantCensuses      int
		refused           string
	}{
		{20000, 4, 20000, 4, ""},
		{0, 0, 20000, 4, ""},
		{3000, 2, 3000, 2, ""},
		{3000, -1, 0, 0, "censuses: "},
		{-5, 2, 0, 0, "unicast24s: "},
		{20_000_000, 2, 0, 0, "unicast24s: "},
	} {
		cfg, err := labConfig(c.unicast, c.censuses, 7)
		switch {
		case c.refused != "":
			if err == nil || !strings.HasPrefix(err.Error(), c.refused) {
				t.Errorf("-unicast24s %d -censuses %d: %v, want an error naming %q", c.unicast, c.censuses, err, c.refused)
			}
		case err != nil:
			t.Errorf("-unicast24s %d -censuses %d: %v", c.unicast, c.censuses, err)
		case cfg.Unicast24s != c.wantUnicast || cfg.Censuses != c.wantCensuses || cfg.Seed != 7:
			t.Errorf("-unicast24s %d -censuses %d: lab of %d /24s, %d censuses, seed %d; want %d, %d, 7",
				c.unicast, c.censuses, cfg.Unicast24s, cfg.Censuses, cfg.Seed, c.wantUnicast, c.wantCensuses)
		}
	}
}

// The command exits 1 on those values before it builds a lab.
func TestRefusesFlagValues(t *testing.T) {
	for _, bad := range []string{"-censuses -1", "-unicast24s -5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+bad)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("experiments %s: %v, want exit status 1", bad, err)
			continue
		}
		flagName := strings.TrimPrefix(strings.Fields(bad)[0], "-")
		if !strings.HasPrefix(stderr.String(), flagName+": ") {
			t.Errorf("experiments %s: refused without naming the flag: %q", bad, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("experiments %s: printed %q before refusing", bad, stdout.String())
		}
	}
}
