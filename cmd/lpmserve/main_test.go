package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// commandFlags registers the command's flags (not the test binary's) on a
// fresh set, whose Visit sees only what one case sets.
func commandFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("lpmserve", flag.ContinueOnError)
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	return fs
}

// TestEveryFlagBelongsToARole keeps the role table complete: a flag that
// no role lists would be rejected under every role.
func TestEveryFlagBelongsToARole(t *testing.T) {
	commandFlags().VisitAll(func(f *flag.Flag) {
		if slices.Contains(commonFlags, f.Name) {
			return
		}
		for _, names := range roleFlags {
			if slices.Contains(names, f.Name) {
				return
			}
		}
		t.Errorf("flag -%s is read by no role", f.Name)
	})
}

// TestMisplacedFlag pins which explicitly set flags each role rejects,
// including a flag set to its default value.
func TestMisplacedFlag(t *testing.T) {
	cases := []struct {
		role string
		args []string
		want string
	}{
		{"router", []string{"-topology", "t.json", "-max-inflight", "8"}, "max-inflight"},
		{"router", []string{"-max-queued", "256"}, "max-queued"},
		{"router", []string{"-index", "idx.slpm"}, "index"},
		{"router", []string{"-shard", "0"}, "shard"},
		{"single", []string{"-index", "idx.slpm", "-partial"}, "partial"},
		{"single", []string{"-retries", "2"}, "retries"},
		{"single", []string{"-shard", "1"}, "shard"},
		{"worker", []string{"-hedge-after", "10ms"}, "hedge-after"},
		{"worker", []string{"-topology", "t.json"}, "topology"},
		{"router", []string{"-topology", "t.json", "-partial", "-retries", "0", "-addr", ":1", "-timeout", "1s", "-quiet"}, ""},
		{"worker", []string{"-index", "x", "-shard", "0", "-max-inflight", "4", "-drain", "1s"}, ""},
		{"single", []string{"-index", "x", "-max-queued", "8", "-max-timeout", "5s"}, ""},
	}
	for _, tc := range cases {
		fs := commandFlags()
		if err := fs.Parse(append([]string{"-role", tc.role}, tc.args...)); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := misplacedFlag(fs, tc.role); got != tc.want {
			t.Errorf("-role %s %v: misplaced %q, want %q", tc.role, tc.args, got, tc.want)
		}
	}
}
