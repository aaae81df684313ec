package fit

// TwoLineGridOracle exposes the replaced grid fit to the external tests.
var TwoLineGridOracle = twoLineGridOracle
