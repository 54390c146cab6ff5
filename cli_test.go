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
		{"tsosim", []string{"-workload", "nope"}},
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
		// A stray positional word stops flag parsing; the flags after it
		// must not be silently dropped.
		{"tsosim", []string{"bogus", "-cores", "2"}},
		{"litmus", []string{"bogus", "-seeds", "0"}},
		{"wbsimcheck", []string{"bogus", "-cores", "-1"}},
		// experiments takes one verb, and reads flags on either side of it.
		{"experiments", []string{"fig9", "bogus"}},
		{"experiments", []string{"fig9", "-cores", "0"}},
		{"experiments", []string{"nope"}},
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

// TestExperimentsFlagsAfterVerb pins that a flag after the experiment's
// name reaches the engine: both orders print the same tables.
func TestExperimentsFlagsAfterVerb(t *testing.T) {
	experiments := buildTool(t, t.TempDir(), "experiments")
	var outs [2][]byte
	for i, args := range [][]string{
		{"fig9", "-cores", "2", "-scale", "1"},
		{"-cores", "2", "-scale", "1", "fig9"},
	} {
		out, err := exec.Command(experiments, args...).Output()
		if err != nil {
			t.Fatalf("experiments %v: %v", args, err)
		}
		outs[i] = out
	}
	if len(outs[0]) == 0 {
		t.Fatal("experiments fig9 printed nothing")
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("flags after the verb changed the tables:\n-- fig9 -cores 2 -scale 1 --\n%s\n-- -cores 2 -scale 1 fig9 --\n%s",
			outs[0], outs[1])
	}
}
