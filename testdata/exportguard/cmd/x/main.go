package main

import "planted/internal/a"

func main() {
	a.Used()
	a.T{}.Called()
	a.Recursive(1)
}
