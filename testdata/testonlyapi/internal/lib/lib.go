// Package lib is TestNoTestOnlyAPI's fixture: an internal package with one
// export of each kind the scan must tell apart.
package lib

import "fmt"

// Used is called by the app: not a hit.
func Used() int { return 1 }

// Unused is referenced by nothing: a hit.
func Unused() int { return 2 }

// Hook is referenced by nothing, but a test needs it: not a hit.
//
// testhook: the annotated case of the fixture
func Hook() {}

// Shape is named by the app: not a hit.
type Shape struct{}

// Area is called only through the app's interface: not a hit.
func (Shape) Area() float64 { return 1 }

// String implements fmt.Stringer: not a hit.
func (Shape) String() string { return fmt.Sprint("shape") }

// Perimeter is called by nothing: a hit.
func (Shape) Perimeter() float64 { return 4 }
