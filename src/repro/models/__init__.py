"""The model zoo: scaled-down versions of the networks the paper evaluates.

The paper traces training of AlexNet, VGG16, ResNet-50, DenseNet-121,
SqueezeNet (ImageNet classification), img2txt (scene understanding /
captioning), SNLI (natural-language inference), two pruned-while-training
ResNet-50 variants (DS90 and SM90) and GCN (a gated convolutional language
model with virtually no sparsity).  Full ImageNet-scale training is not
feasible here, so each model is reproduced at reduced width/depth while
preserving the architectural features that determine operand sparsity:
ReLU placement, batch-normalisation placement (DenseNet), residual
connections (ResNet), concatenation (DenseNet/SqueezeNet), dropout
(AlexNet/VGG) and gated linear units without ReLU (GCN).
"""

from repro._lazy import lazy_exports

__all__ = [
    "build_alexnet",
    "build_vgg16",
    "build_resnet50",
    "build_densenet121",
    "build_squeezenet",
    "build_img2txt",
    "build_snli",
    "build_gcn",
    "ModelSpec",
    "MODEL_REGISTRY",
    "build_model",
    "build_dataset",
    "available_models",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.models.alexnet": ("build_alexnet",),
    "repro.models.vgg": ("build_vgg16",),
    "repro.models.resnet": ("build_resnet50",),
    "repro.models.densenet": ("build_densenet121",),
    "repro.models.squeezenet": ("build_squeezenet",),
    "repro.models.img2txt": ("build_img2txt",),
    "repro.models.snli": ("build_snli",),
    "repro.models.gcn": ("build_gcn",),
    "repro.models.registry": (
        "ModelSpec", "MODEL_REGISTRY", "build_model", "build_dataset",
        "available_models",
    ),
})
