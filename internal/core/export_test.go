package core

// Trainings returns how many recommenders this process has trained.
func Trainings() int64 { return trainings.Load() }
