package cli

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

func TestParse(t *testing.T) {
	for _, c := range []struct {
		name    string
		args    []string
		max     int
		pos     []string
		cores   int
		json    bool
		mode    string
		wantErr bool
	}{
		{name: "none", max: 0, cores: 16},
		{name: "flags before verb", args: []string{"-cores", "4", "-json", "fig9"}, max: 1,
			pos: []string{"fig9"}, cores: 4, json: true},
		{name: "flags after verb", args: []string{"fig9", "-cores", "4", "-json"}, max: 1,
			pos: []string{"fig9"}, cores: 4, json: true},
		{name: "flags between positionals", args: []string{"./a", "-cores=3", "./b", "-mode", "x", "./c"}, max: -1,
			pos: []string{"./a", "./b", "./c"}, cores: 3, mode: "x"},
		{name: "double dash ends flags", args: []string{"-cores", "2", "--", "-json", "x"}, max: -1,
			pos: []string{"-json", "x"}, cores: 2},
		{name: "double dash as a value", args: []string{"-mode", "--", "-cores", "5"}, max: 0,
			cores: 5, mode: "--"},
		{name: "dash value", args: []string{"-mode", "-json"}, max: 0, cores: 16, mode: "-json"},
		{name: "lone dash is positional", args: []string{"-"}, max: 1, pos: []string{"-"}, cores: 16},
		{name: "bool takes no value", args: []string{"-json", "false"}, max: 0, wantErr: true},
		{name: "too many positionals", args: []string{"fig9", "bogus"}, max: 1, wantErr: true},
		{name: "stray word", args: []string{"bogus", "-cores", "2"}, max: 0, wantErr: true},
		{name: "malformed value", args: []string{"fig9", "-cores", "four"}, max: 1, wantErr: true},
		{name: "missing value", args: []string{"fig9", "-cores"}, max: 1, wantErr: true},
		{name: "unknown flag", args: []string{"-nope"}, max: 0, wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cores := fs.Int("cores", 16, "")
			jsonOut := fs.Bool("json", false, "")
			mode := fs.String("mode", "", "")
			pos, err := parse(fs, c.args, c.max)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parse(%q) = %q, want an error", c.args, pos)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse(%q): %v", c.args, err)
			}
			if !reflect.DeepEqual(pos, c.pos) || *cores != c.cores || *jsonOut != c.json || *mode != c.mode {
				t.Errorf("parse(%q) = %q, -cores %d, -json %v, -mode %q; want %q, %d, %v, %q",
					c.args, pos, *cores, *jsonOut, *mode, c.pos, c.cores, c.json, c.mode)
			}
		})
	}
}
