"""`arch`: a `model.Architecture` for tests, with the shape the experiment
configs give when a setting is left out (a tapered encoder of
`model.ENCODER_LAYERS` layers, one hidden head layer of 8 units, dropout 0.2,
an identity decoder output) and two classes."""

from oodfdd import model


def arch(input_dim, latent_dim, n_classes=2, encoder_widths=None, head_widths=(8,),
         dropout_rate=0.2, decoder_activation="identity"):
    if encoder_widths is None:
        encoder_widths = model.taper_widths(input_dim, latent_dim)
    return model.Architecture(input_dim=input_dim, latent_dim=latent_dim, n_classes=n_classes,
                              encoder_widths=list(encoder_widths),
                              head_widths=list(head_widths), dropout_rate=dropout_rate,
                              decoder_activation=decoder_activation)
