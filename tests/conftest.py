from hypothesis import settings

settings.register_profile("numeric", deadline=None, max_examples=150)
settings.load_profile("numeric")
