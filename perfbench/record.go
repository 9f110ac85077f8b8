package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// recordExpected rewrites the recorded outputs the correctness gates
// compare against: evalrepro's output for every paper-eval corpus seed, and
// diffcoded's verdict on every serve-check corpus program.
func recordExpected(e *env) error {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	for _, cs := range corpusSeeds {
		out, _, err := e.run("evalrepro", corpusArgs(e.corpusConfig(cs), "-fig", "all", "-elicit")...)
		if err != nil {
			return err
		}
		if err := checkHeadline(out); err != nil && e.claimsApply() {
			return fmt.Errorf("corpus seed %d: %v", cs, err)
		}
		if err := writeGzip(e.expectedPaperPath(cs), out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: recorded paper-eval corpus seed %d\n", cs)
	}

	s, _, err := e.startServer()
	if err != nil {
		return err
	}
	defer s.stop()
	pool := servePool(e.corpusConfig(serveCorpusSeed))
	lines := make([]string, len(pool))
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sd := newSender(s.base, nil)
			defer sd.close()
			for i := w; i < len(pool); i += serveConns {
				ids, err := sd.rules(&request{prog: pool[i], body: marshalRequest(pool[i], false)})
				if err != nil {
					errs[w] = err
					return
				}
				lines[i] = pool[i].id + "\t" + verdict(ids)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sort.Strings(lines)
	path := e.verdictsPath()
	if err := writeGzip(path, []byte(strings.Join(lines, "\n")+"\n")); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: recorded %d serve-check verdicts\n", len(lines))
	return nil
}
