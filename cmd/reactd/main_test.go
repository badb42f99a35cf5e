package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// argsEnv makes the test binary run reactd's main with the listed
// arguments instead of the tests, so a test can watch the real start-up.
const argsEnv = "REACTD_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(argsEnv); args != "" {
		os.Args = append([]string{"reactd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCheckGridDurability(t *testing.T) {
	for _, c := range []struct {
		grid, dataDir, profiles string
		ok                      bool
	}{
		{"", "", "", true},
		{"", "/data", "p.json", true},
		{"2x2", "", "", true},
		{"2x2", "/data", "", false},
		{"2x2", "", "p.json", false},
	} {
		if err := checkGridDurability(c.grid, c.dataDir, c.profiles); (err == nil) != c.ok {
			t.Errorf("checkGridDurability(%q, %q, %q) = %v", c.grid, c.dataDir, c.profiles, err)
		}
	}
}

// TestGridRefusesDurabilityFlags runs reactd itself: with -grid, asking
// for -data-dir or -profiles must fail at start-up with exit status 2 and
// say why, rather than serve without the durability the user asked for.
func TestGridRefusesDurabilityFlags(t *testing.T) {
	for flagName, want := range map[string]string{
		"-data-dir": "-data-dir is not supported with -grid",
		"-profiles": "-profiles is not supported with -grid",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), argsEnv+"=-addr 127.0.0.1:0 -grid 2x2 "+flagName+" "+t.TempDir()+"/x")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: reactd exited with %v, want status 2; output:\n%s", flagName, err, out)
		}
		if !strings.Contains(string(out), want) {
			t.Fatalf("%s: output %q lacks %q", flagName, out, want)
		}
	}
}
