// Command deadfixture is the fixture the dead-code scan's own test
// runs on: each function or method below is one the scan must pass or
// flag.
package main

import (
	"bytes"
	"fmt"
	"io"

	"deadfixture/shapes"
)

var greeting string

func init() { greeting = "hello" }

func main() {
	q := shapes.NewSquare(2)
	var s shapes.Shape = q
	fmt.Println(q, s.Area(), shapes.Used(), shapes.Sorted("b", "a"))
	fmt.Println(size(bytes.NewReader([]byte("abc"))))
	var c shapes.Tally
	c.Incr()
	fmt.Println(c.N, shapes.Paint{}, greeting)
}

// size calls Len through an interface that shapes.Bag implements; Bag
// is never converted to an interface, so its Len stays flagged.
func size(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}
