package temporal

// DiameterOracle exposes the linear-oracle diameter to the external test
// package, whose availability-model networks cannot be built in here.
var DiameterOracle = diameterOracle
