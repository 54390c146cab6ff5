package wbsim_test

// Golden-output gate for the event-driven simulation kernel: the
// command-line tools must produce byte-identical stdout to the goldens
// in testdata/, each captured from a tree before the change it guards
// (the kernel rework, or for the 4-core evaluation the shared front end
// that made experiments read flags after its verb):
//
//   - golden_experiments_all_c16s2.txt: experiments -cores 16 -scale 2 all,
//     the paper's 16-core evaluation
//   - golden_experiments_all_c4s1.txt: experiments -cores 4 -scale 1 all
//   - golden_litmus_s2.txt: the litmus suite, 4 variants, seeds=2, jitter=24
//   - golden_chaos_s2.txt: the chaos catalog on inorder-wb and ooo-wb,
//     seeds=2, jitter=24
//   - golden_tsosim_fft_lucb_c4s1.txt: tsosim fft,lu_cb on ooo-wb, SLM,
//     4 cores, scale 1
//
// Idle-skip scheduling, the zero-alloc mesh, and every allocation-shaving
// change in between are pure performance work; a single changed byte
// here means a changed simulated outcome, which is a correctness bug by
// definition.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

func checkGolden(t *testing.T, golden, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = nil // engine reports carry wall-clock times; stdout is the artifact
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (%d bytes got, %d want); the kernel changed a simulated outcome",
			golden, len(got), len(want))
	}
}

func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command-line tools")
	}
	dir := t.TempDir()
	tsosim := buildTool(t, dir, "tsosim")
	litmus := buildTool(t, dir, "litmus")

	t.Run("tsosim_fft_lucb_c4s1", func(t *testing.T) {
		checkGolden(t, "golden_tsosim_fft_lucb_c4s1.txt", tsosim,
			"-workload", "fft,lu_cb", "-cores", "4", "-scale", "1")
	})
	t.Run("litmus_suite_s2", func(t *testing.T) {
		checkGolden(t, "golden_litmus_s2.txt", litmus,
			"-variants", "inorder-base,inorder-wb,ooo-base,ooo-wb", "-seeds", "2")
	})
	t.Run("chaos_s2", func(t *testing.T) {
		checkGolden(t, "golden_chaos_s2.txt", litmus,
			"-chaos", "-seeds", "2", "-variants", "inorder-wb,ooo-wb")
	})

	// The full evaluation (Figures 8/9/10, squash study, ablations,
	// protocols) takes most of a minute at 16 cores; run it via
	// `make golden-full` or by setting WBSIM_GOLDEN_FULL=1.
	var experiments string
	for _, c := range []struct{ name, cores, scale string }{
		{"experiments_all_c16s2", "16", "2"},
		{"experiments_all_c4s1", "4", "1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if os.Getenv("WBSIM_GOLDEN_FULL") == "" {
				t.Skip("set WBSIM_GOLDEN_FULL=1 (or use `make golden-full`) to run the full-evaluation goldens")
			}
			if experiments == "" {
				experiments = buildTool(t, dir, "experiments")
			}
			checkGolden(t, "golden_"+c.name+".txt", experiments,
				"-cores", c.cores, "-scale", c.scale, "all")
		})
	}
}
