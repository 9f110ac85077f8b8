package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/javaast"
	"repro/internal/javaparser"
)

// Normalized returns the options with the analyzer defaults applied — the
// canonical form artifact fingerprints hash, so a caller that spells out
// the defaults and one that leaves them zero address the same artifacts.
func (o Options) Normalized() Options { return o.withDefaults() }

// parseArtifact is the cached outcome of parsing one source file: the unit
// plus the recovered-error count, so the parse.* telemetry of a warm run is
// identical to a cold one.
type parseArtifact struct {
	Unit *javaast.CompilationUnit
	Errs int
}

func encodeParseArtifact(pa *parseArtifact) ([]byte, error) {
	javaast.GobRegister()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(pa); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeParseArtifact(b []byte) (any, error) {
	javaast.GobRegister()
	var pa parseArtifact
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&pa); err != nil {
		return nil, err
	}
	if pa.Unit == nil {
		return nil, fmt.Errorf("parse artifact holds no unit")
	}
	return &pa, nil
}

// parseFile parses one source file, through st when it is non-nil: the
// parse is addressed by content, concurrent parses of the same content
// share one run (per-key single-flight), and a stored unit is reused.
func parseFile(st *artifact.Store, src string) *parseArtifact {
	if st == nil {
		return parseSource(src)
	}
	k := artifact.NewKey(artifact.KindParse, src)
	v, _ := st.Do(artifact.KindParse, k, func() (any, error) {
		if v, ok := st.Get(artifact.KindParse, k, decodeParseArtifact); ok {
			return v, nil
		}
		pa := parseSource(src)
		st.Put(artifact.KindParse, k, pa, func() ([]byte, error) { return encodeParseArtifact(pa) })
		return pa, nil
	})
	return v.(*parseArtifact)
}

func parseSource(src string) *parseArtifact {
	res := javaparser.Parse(src)
	return &parseArtifact{Unit: res.Unit, Errs: len(res.Errors)}
}
