package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// mmsimBin is the CLI under test, built once by TestMain.
var mmsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mmsim-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mmsimBin = filepath.Join(dir, "mmsim")
	build := exec.Command("go", "build", "-o", mmsimBin, ".")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building mmsim:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins the CLI's exit-code contract: 0 when every
// experiment passes, 1 when any fails (a deadline included), 2 for
// usage errors. Output patterns must match stdout+stderr.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
		want []string
	}{
		{
			// F13's sweep points take over a second together: the one
			// per-experiment clock must stop it, while T1 still passes.
			name: "deadline bounds the whole experiment",
			args: []string{"-quick", "-workers", "1", "-deadline", "250ms", "run", "F13", "T1"},
			exit: 1,
			want: []string{
				`(?m)^== F13: .*\[FAIL\]$`,
				`exceeded 250ms wall-clock budget`,
				`(?m)^== T1: .*\[PASS\]$`,
			},
		},
		{name: "passing run", args: []string{"-quick", "run", "T1"}, exit: 0, want: []string{`(?m)^== T1: .*\[PASS\]$`}},
		{name: "negative deadline", args: []string{"-deadline", "-5s", "run", "T1"}, exit: 2, want: []string{`-deadline -5s is negative`}},
		{name: "negative workers", args: []string{"-workers", "-1", "run", "T1"}, exit: 2},
		{name: "resume without capture", args: []string{"-resume", "run", "T1"}, exit: 2},
		{name: "bare run", args: []string{"run"}, exit: 2},
		{name: "unknown experiment", args: []string{"run", "NOPE"}, exit: 2, want: []string{`unknown experiment "NOPE"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			cmd := exec.Command(mmsimBin, tc.args...)
			cmd.Stdout, cmd.Stderr = &out, &out
			err := cmd.Run()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.exit {
				t.Errorf("mmsim %q exited %d, want %d; output:\n%s", tc.args, code, tc.exit, out.String())
			}
			for _, pat := range tc.want {
				if !regexp.MustCompile(pat).Match(out.Bytes()) {
					t.Errorf("mmsim %q output lacks %q:\n%s", tc.args, pat, out.String())
				}
			}
		})
	}
}
