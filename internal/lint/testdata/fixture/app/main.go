// Command app is the fixture's product code: what it references counts
// as used by the testonly check.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	lib.Used()
	fmt.Println(lib.Level(2))
	lib.Explode()
	lib.Die()
	lib.Guard()
}
