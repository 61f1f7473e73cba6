package core

import (
	"fmt"

	"repro/internal/stats"
)

// jsonComponent is the wire form of a Component in a snapshot.
type jsonComponent struct {
	Mean      []float64   `json:"mean"`
	Precision [][]float64 `json:"precision"`
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
