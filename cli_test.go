package wbsim_test

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMalformedFlagsExitTwo runs the command-line tools with flags
// that name no machine or campaign and checks each one is refused up
// front: exit status 2, the same as an unknown -variant, with no panic,
// stack dump, hang, or empty simulation in its place.
func TestMalformedFlagsExitTwo(t *testing.T) {
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"tsosim", "litmus", "experiments", "wbsimcheck"} {
		bins[name] = buildTool(t, dir, name)
	}
	for _, c := range []struct {
		tool string
		args []string
	}{
		{"tsosim", []string{"-cores", "-3"}},
		{"tsosim", []string{"-cores", "0"}},
		{"tsosim", []string{"-scale", "0"}},
		{"tsosim", []string{"-class", "XYZ"}},
		{"tsosim", []string{"-variant", "nope"}},
		{"litmus", []string{"-seeds", "-1"}},
		{"litmus", []string{"-seeds", "0"}},
		{"litmus", []string{"-jitter", "-5"}},
		{"experiments", []string{"-cores", "-1", "fig9"}},
		{"experiments", []string{"-scale", "0", "fig9"}},
		{"experiments", []string{"-chaos-seeds", "0", "chaos"}},
		{"wbsimcheck", []string{"-mode", "nope"}},
		{"wbsimcheck", []string{"-max-states", "-5"}},
		{"wbsimcheck", []string{"-mode", "lockdown", "-lockdowns", "-1"}},
		{"wbsimcheck", []string{"-mode", "squash", "-lockdowns", "1"}},
	} {
		t.Run(c.tool+" "+strings.Join(c.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bins[c.tool], c.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("%s %v still running after 30s", c.tool, c.args)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: got %v, want exit status 2\nstderr:\n%s", c.tool, c.args, err, stderr.String())
			}
			if s := stderr.String(); strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
				t.Fatalf("%s %v: stderr shows a crash:\n%s", c.tool, c.args, s)
			}
		})
	}
}
