package a

import "testing"

func TestUnused(t *testing.T) { Unused() }
