module xmodart

go 1.21
