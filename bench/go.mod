module github.com/backlogfs/backlog/bench

go 1.24

require github.com/backlogfs/backlog v0.0.0

replace github.com/backlogfs/backlog => ../
