// Julietaudit: regenerate the paper's Figure 2 end to end — generate the
// Juliet-style benchmark, run all four analysis tools on every test, and
// print the per-class detection table plus timing.
//
//	go run ./examples/julietaudit
package main

import (
	"fmt"
	"os"

	"repro/internal/runner"
	"repro/internal/suite"
	"repro/internal/tools"
)

func main() {
	s := suite.Juliet()
	fmt.Printf("generated %d tests: %d undefined, %d paired defined controls\n",
		len(s.Cases), s.BadCount(), len(s.Cases)-s.BadCount())
	fmt.Printf("(the NIST original: 4113 tests in the same six classes)\n\n")

	fig, err := runner.RunJuliet(s, tools.All(tools.Config{}), runner.Options{Parallelism: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "julietaudit:", err)
		os.Exit(1)
	}
	fmt.Print(fig.Render())

	fmt.Println("\nReading the table against the paper's Figure 2:")
	fmt.Println(" - kcc and the (patched) Value Analysis catch every class;")
	fmt.Println(" - Valgrind and CheckPointer score 0 on division by zero and")
	fmt.Println("   integer overflow — their instrumentation cannot see them;")
	fmt.Println(" - CheckPointer is weak on uninitialized memory (it tracks")
	fmt.Println("   pointers, not values);")
	fmt.Println(" - Valgrind trails CheckPointer on invalid pointers (the")
	fmt.Println("   stack is one addressable blob under binary instrumentation).")
}
