package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
)

// procStats is what one finished program process cost.
type procStats struct {
	Wall  time.Duration
	CPU   time.Duration // user + system
	RSSMB float64       // peak resident set
}

// env carries what every workload needs: where the built programs live, a
// scratch directory inside the checkout, and the run's deadline.
type env struct {
	ctx  context.Context
	bin  string // directory holding evalrepro, diffcode, diffcoded, corpusgen
	work string // scratch directory, emptied per run
	root string // checkout root (rule packs and goldens are read from it)
	// size is the corpus size of paper-eval and serve-check, and mineSize
	// that of mine-rerun; a smoke test shrinks both.
	size, mineSize corpus.Config
	// testdata holds the recorded outputs the correctness gates use.
	testdata string
}

func (e *env) prog(name string) string { return filepath.Join(e.bin, name) }

// run executes a program to completion and returns its standard output and
// resource use. A non-zero exit is an error carrying the tail of stderr.
func (e *env) run(name string, args ...string) ([]byte, procStats, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(e.ctx, e.prog(name), args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.Dir = e.root
	start := time.Now()
	err := cmd.Run()
	st := procStats{Wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		st.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		tail := strings.TrimSpace(stderr.String())
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return stdout.Bytes(), st, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, tail)
	}
	return stdout.Bytes(), st, nil
}

// dirMB returns the apparent size of every regular file under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
