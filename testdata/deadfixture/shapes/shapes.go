// Package shapes holds the fixture's functions and methods.
package shapes

import "sort"

// Shape is the interface main calls Area through.
type Shape interface{ Area() float64 }

// Square is converted to Shape in main.
type Square struct{ side float64 }

// NewSquare is called.
func NewSquare(side float64) *Square { return &Square{side: side} }

// Area is reached only through Shape: it passes.
func (q *Square) Area() float64 { return q.side * q.side }

// String is reached through fmt, which calls fmt.Stringer.
func (q *Square) String() string { return "square" }

// Perimeter is an unused method: it is flagged.
func (q *Square) Perimeter() float64 { return 4 * q.side }

// Unused is an unused exported function: it is flagged.
func Unused() int { return 1 }

// Used is called, and so is helper through it.
func Used() int { return helper() }

func helper() int { return 2 }

// countdown is referred to only from inside itself: it is flagged.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Bag has a Len() int but is never converted to an interface, so
// size's call through interface{ Len() int } does not reach it.
type Bag struct{ items []int }

// Len is flagged.
func (b *Bag) Len() int { return len(b.items) }

// byName is reached through sort.Sort, which takes a sort.Interface.
type byName []string

func (s byName) Len() int           { return len(s) }
func (s byName) Less(i, j int) bool { return s[i] < s[j] }
func (s byName) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Sorted sorts names.
func Sorted(names ...string) []string {
	sort.Sort(byName(names))
	return names
}

// Counter's Incr is promoted into Tally and called there.
type Counter struct{ N int }

// Incr is called through Tally.
func (c *Counter) Incr() { c.N++ }

// Tally embeds Counter.
type Tally struct{ Counter }

// Color is printed only as a field of Paint, which fmt reaches by
// reflection.
type Color int

// String passes.
func (c Color) String() string { return "red" }

// Paint is handed to fmt.
type Paint struct{ C Color }
