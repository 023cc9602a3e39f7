package eventq_test

import (
	"fmt"

	"repro/internal/eventq"
)

// Example shows the queue API shared by the heap and ladder
// implementations; the kernel schedules events through exactly this
// interface.
func Example() {
	q, err := eventq.New[int]("heap", func(a, b int) bool { return a < b }, nil)
	if err != nil {
		panic(err)
	}
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
