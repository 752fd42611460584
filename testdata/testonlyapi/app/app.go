// Package app is the fixture's product code.
package app

import "fixture/internal/lib"

type areaer interface{ Area() float64 }

// Total reaches lib.Shape's Area through an interface.
func Total() float64 {
	var a areaer = lib.Shape{}
	return a.Area() + float64(lib.Used())
}
