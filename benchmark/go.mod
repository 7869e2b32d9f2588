module hsqp/benchmark

go 1.23

require hsqp v0.0.0

replace hsqp => ../
