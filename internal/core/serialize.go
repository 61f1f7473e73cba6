package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// jsonComponent is the wire form of a Component.
type jsonComponent struct {
	Mean      []float64   `json:"mean"`
	Precision [][]float64 `json:"precision"`
}

// jsonResult is the wire form of a Result.
type jsonResult struct {
	K              int             `json:"k"`
	V              int             `json:"v"`
	Alpha          float64         `json:"alpha"`
	Gamma          float64         `json:"gamma"`
	UseEmulsion    bool            `json:"use_emulsion"`
	EmulsionWeight float64         `json:"emulsion_weight"`
	Phi            [][]float64     `json:"phi"`
	Theta          [][]float64     `json:"theta"`
	Y              []int           `json:"y"`
	Gel            []jsonComponent `json:"gel"`
	Emu            []jsonComponent `json:"emu"`
	LogLik         []float64       `json:"loglik"`
}

func toJSONComponent(c Component) jsonComponent {
	rows := make([][]float64, c.Precision.R)
	for i := 0; i < c.Precision.R; i++ {
		rows[i] = c.Precision.Row(i)
	}
	return jsonComponent{Mean: c.Mean, Precision: rows}
}

func fromJSONComponent(j jsonComponent) (Component, error) {
	if len(j.Precision) == 0 {
		return Component{}, fmt.Errorf("core: component precision is empty")
	}
	for i, row := range j.Precision {
		if len(row) != len(j.Precision) {
			return Component{}, fmt.Errorf("core: component precision row %d has %d entries, want %d (not square)",
				i, len(row), len(j.Precision))
		}
	}
	if len(j.Mean) != len(j.Precision) {
		return Component{}, fmt.Errorf("core: component mean dim %d, precision %d", len(j.Mean), len(j.Precision))
	}
	return Component{Mean: j.Mean, Precision: stats.MatFromRows(j.Precision)}, nil
}

// WriteJSON serializes the fitted model.
func (r *Result) WriteJSON(w io.Writer) error {
	jr := jsonResult{
		K: r.K, V: r.V, Phi: r.Phi, Theta: r.Theta, Y: r.Y, LogLik: r.LogLik,
		Alpha: r.Alpha, Gamma: r.Gamma, UseEmulsion: r.UseEmulsion, EmulsionWeight: r.EmulsionWeight,
	}
	for _, c := range r.Gel {
		jr.Gel = append(jr.Gel, toJSONComponent(c))
	}
	for _, c := range r.Emu {
		jr.Emu = append(jr.Emu, toJSONComponent(c))
	}
	if err := json.NewEncoder(w).Encode(jr); err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	return nil
}

// ReadResultJSON deserializes a fitted model written by WriteJSON.
func ReadResultJSON(rd io.Reader) (*Result, error) {
	var jr jsonResult
	if err := json.NewDecoder(rd).Decode(&jr); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	if jr.K <= 0 || len(jr.Phi) != jr.K || len(jr.Gel) != jr.K || len(jr.Emu) != jr.K {
		return nil, fmt.Errorf("core: result shape inconsistent (K=%d)", jr.K)
	}
	res := &Result{
		K: jr.K, V: jr.V, Phi: jr.Phi, Theta: jr.Theta, Y: jr.Y, LogLik: jr.LogLik,
		Alpha: jr.Alpha, Gamma: jr.Gamma, UseEmulsion: jr.UseEmulsion, EmulsionWeight: jr.EmulsionWeight,
	}
	for _, jc := range jr.Gel {
		c, err := fromJSONComponent(jc)
		if err != nil {
			return nil, err
		}
		res.Gel = append(res.Gel, c)
	}
	for _, jc := range jr.Emu {
		c, err := fromJSONComponent(jc)
		if err != nil {
			return nil, err
		}
		res.Emu = append(res.Emu, c)
	}
	return res, nil
}
