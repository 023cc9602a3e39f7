package eventq_test

import (
	"fmt"

	"repro/internal/eventq"
)

// Example shows the ladder's API: elements are ordered by the comparison
// and bucketed by the key projection, which must be monotone with respect
// to it. The kernel schedules events through exactly these calls.
func Example() {
	q := eventq.NewLadder(func(a, b int) bool { return a < b }, func(v int) float64 { return float64(v) })
	for _, v := range []int{5, 1, 4, 1, 3} {
		q.Push(v)
	}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		fmt.Print(v, " ")
	}
	fmt.Println()
	// Output: 1 1 3 4 5
}
