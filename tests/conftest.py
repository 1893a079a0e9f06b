from hypothesis import settings

# Property tests run the same examples on every run, and a slow first call
# (numpy FFT plan setup) is not a failure.
settings.register_profile("spencerflow", deadline=None, derandomize=True)
settings.load_profile("spencerflow")
