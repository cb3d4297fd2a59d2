package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the gob wire format of a parameter checkpoint: one slice
// per parameter tensor.
type snapshot struct {
	Params [][]float64
}

// SaveParams writes the parameter tensors ts to w in gob format.
func SaveParams(w io.Writer, ts [][]float64) error {
	return gob.NewEncoder(w).Encode(&snapshot{Params: ts})
}

// LoadParams reads a checkpoint written by SaveParams into ts, which must
// have the saved tensor count and sizes.
func LoadParams(r io.Reader, ts [][]float64) error {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	if len(s.Params) != len(ts) {
		return fmt.Errorf("nn: checkpoint has %d parameter tensors, module has %d", len(s.Params), len(ts))
	}
	for i, t := range ts {
		if len(s.Params[i]) != len(t) {
			return fmt.Errorf("nn: parameter %d size mismatch: checkpoint %d, module %d", i, len(s.Params[i]), len(t))
		}
	}
	for i, t := range ts {
		copy(t, s.Params[i])
	}
	return nil
}
