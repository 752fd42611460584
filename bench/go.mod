module spotdc/bench

go 1.22

require spotdc v0.0.0

replace spotdc => ../
